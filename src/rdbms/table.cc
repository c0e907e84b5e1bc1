#include "rdbms/table.h"

#include <algorithm>
#include <atomic>

namespace mdv::rdbms {

namespace {

/// Aggregate (cross-table) lookup latency. Recording every select would
/// cost two clock reads on paths that do little more than one index
/// probe, so lookups are sampled 1-in-kLookupSampleRate; the histogram
/// still converges on the true latency distribution while keeping the
/// per-call overhead to one relaxed increment.
constexpr uint64_t kLookupSampleRate = 16;

obs::Histogram& LookupLatencyUs() {
  static obs::Histogram& h =
      obs::DefaultMetrics().GetHistogram("mdv.rdbms.lookup_us");
  return h;
}

obs::Histogram& InsertLatencyUs() {
  static obs::Histogram& h =
      obs::DefaultMetrics().GetHistogram("mdv.rdbms.insert_us");
  return h;
}

bool SampleLookup() {
  static std::atomic<uint64_t> tick{0};
  return tick.fetch_add(1, std::memory_order_relaxed) % kLookupSampleRate == 0;
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  obs::MetricsRegistry& metrics = obs::DefaultMetrics();
  const std::string prefix = "mdv.rdbms.table." + schema_.table_name() + ".";
  metric_index_lookups_ = &metrics.GetCounter(prefix + "index_lookups_total");
  metric_full_scans_ = &metrics.GetCounter(prefix + "full_scans_total");
  metric_rows_examined_ = &metrics.GetCounter(prefix + "rows_examined_total");
  metric_rows_inserted_ = &metrics.GetCounter(prefix + "rows_inserted_total");
}

Status Table::ValidateRow(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = schema_.column(i);
    if (row[i].is_null()) {
      if (!col.nullable) {
        return Status::InvalidArgument("NULL in non-nullable column " +
                                       col.name);
      }
      continue;
    }
    switch (col.type) {
      case ColumnType::kInt64:
      case ColumnType::kDouble:
        if (!row[i].is_numeric()) {
          return Status::InvalidArgument("non-numeric value in column " +
                                         col.name);
        }
        break;
      case ColumnType::kString:
        // STRING accepts anything; values render via ToString on demand.
        break;
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(Row row) {
  obs::ScopedLatency timer(&InsertLatencyUs());
  MDV_RETURN_IF_ERROR(ValidateRow(row));
  RowId id = next_row_id_++;
  IndexInsert(id, row);
  rows_.emplace(id, std::move(row));
  if (undo_ != nullptr) undo_->RecordInsert(this, id);
  metric_rows_inserted_->Increment();
  return id;
}

Status Table::InsertRows(std::vector<Row> rows) {
  obs::ScopedLatency timer(&InsertLatencyUs());
  for (const Row& row : rows) MDV_RETURN_IF_ERROR(ValidateRow(row));
  metric_rows_inserted_->Add(static_cast<int64_t>(rows.size()));
  for (Row& row : rows) {
    RowId id = next_row_id_++;
    IndexInsert(id, row);
    rows_.emplace(id, std::move(row));
    if (undo_ != nullptr) undo_->RecordInsert(this, id);
  }
  return Status::OK();
}

Status Table::Delete(RowId row_id) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) {
    return Status::NotFound("row " + std::to_string(row_id) + " in table " +
                            schema_.table_name());
  }
  IndexRemove(row_id, it->second);
  if (undo_ != nullptr) undo_->RecordDelete(this, row_id, it->second);
  rows_.erase(it);
  return Status::OK();
}

Status Table::Update(RowId row_id, Row row) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) {
    return Status::NotFound("row " + std::to_string(row_id) + " in table " +
                            schema_.table_name());
  }
  MDV_RETURN_IF_ERROR(ValidateRow(row));
  IndexRemove(row_id, it->second);
  if (undo_ != nullptr) undo_->RecordUpdate(this, row_id, it->second);
  it->second = std::move(row);
  IndexInsert(row_id, it->second);
  return Status::OK();
}

const Row* Table::Get(RowId row_id) const {
  auto it = rows_.find(row_id);
  return it == rows_.end() ? nullptr : &it->second;
}

Status Table::CreateIndex(const std::string& column_name, IndexKind kind) {
  auto col = schema_.ColumnIndex(column_name);
  if (!col) {
    return Status::NotFound("column " + column_name + " in table " +
                            schema_.table_name());
  }
  if (HasIndex(*col)) {
    return Status::AlreadyExists("index on " + schema_.table_name() + "." +
                                 column_name);
  }
  auto index = MakeIndex(kind, *col);
  for (const auto& [id, row] : rows_) {
    index->Insert(row[*col], id);
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

bool Table::HasIndex(size_t column) const {
  return std::any_of(
      indexes_.begin(), indexes_.end(),
      [&](const std::unique_ptr<Index>& ix) { return ix->column() == column; });
}

void Table::Scan(const std::function<void(RowId, const Row&)>& fn) const {
  for (const auto& [id, row] : rows_) fn(id, row);
}

void Table::IndexInsert(RowId row_id, const Row& row) {
  for (auto& index : indexes_) index->Insert(row[index->column()], row_id);
}

void Table::IndexRemove(RowId row_id, const Row& row) {
  for (auto& index : indexes_) index->Remove(row[index->column()], row_id);
}

bool Table::RowMatches(const Row& row,
                       const std::vector<ScanCondition>& conditions) {
  for (const auto& cond : conditions) {
    if (!EvaluateCompare(row[cond.column], cond.op, cond.constant)) {
      return false;
    }
  }
  return true;
}

int Table::ChooseAccessPath(
    const std::vector<ScanCondition>& conditions) const {
  int best = -1;
  for (size_t i = 0; i < conditions.size(); ++i) {
    const ScanCondition& cond = conditions[i];
    for (const auto& index : indexes_) {
      if (index->column() != cond.column) continue;
      bool usable =
          cond.op == CompareOp::kEq ||
          (index->SupportsRange() &&
           (cond.op == CompareOp::kLt || cond.op == CompareOp::kLe ||
            cond.op == CompareOp::kGt || cond.op == CompareOp::kGe));
      if (!usable) continue;
      // Prefer equality over range (more selective in general).
      if (best == -1 || (conditions[best].op != CompareOp::kEq &&
                         cond.op == CompareOp::kEq)) {
        best = static_cast<int>(i);
      }
    }
  }
  return best;
}

std::vector<RowId> Table::SelectRowIds(
    const std::vector<ScanCondition>& conditions) const {
  obs::ScopedLatency timer(SampleLookup() ? &LookupLatencyUs() : nullptr);
  std::vector<RowId> out;
  int path = ChooseAccessPath(conditions);
  if (path >= 0) {
    const ScanCondition& cond = conditions[path];
    const Index* index = nullptr;
    for (const auto& ix : indexes_) {
      if (ix->column() != cond.column) continue;
      bool usable = cond.op == CompareOp::kEq || ix->SupportsRange();
      if (usable) {
        index = ix.get();
        break;
      }
    }
    std::vector<RowId> candidates;
    if (cond.op == CompareOp::kEq) {
      index->Lookup(cond.constant, &candidates);
    } else {
      // Range access path: fold every range condition on the chosen
      // column into one [lower, upper] B-tree probe, so `col > a AND
      // col <= b` is a single LookupRange instead of a half-open probe
      // plus per-row re-filtering of the other bound.
      bool has_lower = false, lower_inclusive = false;
      bool has_upper = false, upper_inclusive = false;
      Value lower, upper;
      for (const ScanCondition& c : conditions) {
        if (c.column != cond.column) continue;
        switch (c.op) {
          case CompareOp::kLt:
          case CompareOp::kLe: {
            bool inclusive = c.op == CompareOp::kLe;
            int cmp = has_upper ? c.constant.Compare(upper) : -1;
            if (!has_upper || cmp < 0 || (cmp == 0 && !inclusive)) {
              upper = c.constant;
              upper_inclusive = inclusive;
              has_upper = true;
            }
            break;
          }
          case CompareOp::kGt:
          case CompareOp::kGe: {
            bool inclusive = c.op == CompareOp::kGe;
            int cmp = has_lower ? c.constant.Compare(lower) : 1;
            if (!has_lower || cmp > 0 || (cmp == 0 && !inclusive)) {
              lower = c.constant;
              lower_inclusive = inclusive;
              has_lower = true;
            }
            break;
          }
          default:
            break;
        }
      }
      index->LookupRange(lower, lower_inclusive, has_lower, upper,
                         upper_inclusive, has_upper, &candidates);
    }
    stats_.index_lookups.fetch_add(1, std::memory_order_relaxed);
    stats_.rows_examined.fetch_add(static_cast<int64_t>(candidates.size()),
                                   std::memory_order_relaxed);
    metric_index_lookups_->Increment();
    metric_rows_examined_->Add(static_cast<int64_t>(candidates.size()));
    for (RowId id : candidates) {
      const Row* row = Get(id);
      if (row != nullptr && RowMatches(*row, conditions)) out.push_back(id);
    }
    return out;
  }
  stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
  metric_full_scans_->Increment();
  int64_t examined = 0;
  for (const auto& [id, row] : rows_) {
    ++examined;
    if (RowMatches(row, conditions)) out.push_back(id);
  }
  stats_.rows_examined.fetch_add(examined, std::memory_order_relaxed);
  metric_rows_examined_->Add(examined);
  return out;
}

std::vector<Row> Table::SelectRows(
    const std::vector<ScanCondition>& conditions) const {
  std::vector<Row> out;
  for (RowId id : SelectRowIds(conditions)) out.push_back(*Get(id));
  return out;
}

size_t Table::DeleteWhere(const std::vector<ScanCondition>& conditions) {
  std::vector<RowId> ids = SelectRowIds(conditions);
  for (RowId id : ids) {
    Status st = Delete(id);
    (void)st;  // Ids come from the live table; Delete cannot fail here.
  }
  return ids.size();
}

Status Table::RestoreRow(RowId row_id, Row row) {
  if (rows_.count(row_id) != 0) {
    return Status::AlreadyExists("row " + std::to_string(row_id) +
                                 " in table " + schema_.table_name());
  }
  MDV_RETURN_IF_ERROR(ValidateRow(row));
  IndexInsert(row_id, row);
  rows_.emplace(row_id, std::move(row));
  next_row_id_ = std::max(next_row_id_, row_id + 1);
  return Status::OK();
}

Status Table::CheckInvariants() const {
  auto violation = [this](const std::string& what) {
    return Status::Internal("table " + schema_.table_name() +
                            " invariant violated: " + what);
  };
  for (const std::unique_ptr<Index>& index : indexes_) {
    const size_t column = index->column();
    const std::string& column_name = schema_.columns()[column].name;

    // Row-count parity: one index entry per heap row.
    if (index->NumEntries() != rows_.size()) {
      return violation("index on " + column_name + " holds " +
                       std::to_string(index->NumEntries()) +
                       " entries for " + std::to_string(rows_.size()) +
                       " rows");
    }

    // Entry membership: every entry points at a live row whose column
    // value equals the entry key. With count parity this also rules out
    // missing entries. Ordered indexes must visit keys in order — the
    // range scans binary-search on that.
    Status status = Status::OK();
    const Value* previous = nullptr;
    const bool ordered = index->kind() == IndexKind::kBTree;
    index->ForEachEntry([&](const Value& key, RowId row_id) {
      if (!status.ok()) return;
      auto it = rows_.find(row_id);
      if (it == rows_.end()) {
        status = violation("index on " + column_name +
                           " references deleted row " +
                           std::to_string(row_id));
        return;
      }
      if (it->second[column] != key) {
        status = violation("index on " + column_name + " entry for row " +
                           std::to_string(row_id) + " has stale key " +
                           key.ToString());
        return;
      }
      if (ordered && previous != nullptr && key < *previous) {
        status = violation("B-tree on " + column_name +
                           " keys out of order at row " +
                           std::to_string(row_id));
        return;
      }
      previous = &key;
    });
    MDV_RETURN_IF_ERROR(status);

    // Reverse direction: every heap row is reachable through the index.
    std::vector<RowId> hits;
    for (const auto& [row_id, row] : rows_) {
      hits.clear();
      index->Lookup(row[column], &hits);
      if (std::find(hits.begin(), hits.end(), row_id) == hits.end()) {
        return violation("row " + std::to_string(row_id) +
                         " unreachable through the index on " + column_name);
      }
    }
  }
  return Status::OK();
}

void Table::Truncate() {
  if (undo_ != nullptr) {
    for (const auto& [id, row] : rows_) {
      undo_->RecordDelete(this, id, row);
    }
  }
  rows_.clear();
  // Rebuild empty indexes, keeping their definitions.
  for (auto& index : indexes_) {
    index = MakeIndex(index->kind(), index->column());
  }
}

}  // namespace mdv::rdbms
