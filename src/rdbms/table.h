#ifndef MDV_RDBMS_TABLE_H_
#define MDV_RDBMS_TABLE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "rdbms/index.h"
#include "rdbms/predicate.h"
#include "rdbms/row.h"
#include "rdbms/schema.h"
#include "rdbms/transaction.h"

namespace mdv::rdbms {

/// One conjunct of a simple scan: `column op constant`. Used by the
/// access-path planner.
struct ScanCondition {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  Value constant;
};

/// Execution statistics, exposed so benchmarks can verify which access
/// path was used (paper §3.3.4 stresses physical design of filter tables).
///
/// The struct is the *per-table-instance* view (`Table::stats()`,
/// resettable per test/bench). Every increment is mirrored into the
/// process-wide obs::DefaultMetrics() registry under
/// `mdv.rdbms.table.<name>.*` counters, which aggregate across database
/// instances (e.g. all MDPs of one MdvSystem) and feed MetricsSnapshot().
struct TableStats {
  int64_t index_lookups = 0;  ///< Selects served via a secondary index.
  int64_t full_scans = 0;     ///< Selects that scanned the whole heap.
  int64_t rows_examined = 0;  ///< Rows touched by either access path.
};

/// An in-memory heap table with optional secondary indexes.
///
/// Rows are addressed by stable RowIds; deleting a row never invalidates
/// other ids. All mutation paths keep every registered index in sync.
/// Concurrent const reads (Select*/Scan/Get) are safe — the access-path
/// statistics they update are relaxed atomics. Mutations still need
/// external serialization against both readers and other writers; the
/// sharded filter engine relies on this by giving each shard its own
/// table set.
class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  size_t NumRows() const { return rows_.size(); }
  TableStats stats() const {
    TableStats out;
    out.index_lookups = stats_.index_lookups.load(std::memory_order_relaxed);
    out.full_scans = stats_.full_scans.load(std::memory_order_relaxed);
    out.rows_examined = stats_.rows_examined.load(std::memory_order_relaxed);
    return out;
  }
  void ResetStats() {
    stats_.index_lookups.store(0, std::memory_order_relaxed);
    stats_.full_scans.store(0, std::memory_order_relaxed);
    stats_.rows_examined.store(0, std::memory_order_relaxed);
  }

  /// Validates arity and (loosely) types, then inserts. Returns the new
  /// RowId. STRING columns accept any value; numeric columns accept
  /// numerics or NULL.
  Result<RowId> Insert(Row row);

  /// Batch insert: validates every row up front (all-or-nothing — on a
  /// validation error nothing is inserted), then inserts without
  /// per-row error plumbing. The hot write paths of the filter
  /// (MaterializedResults appends) use this.
  Status InsertRows(std::vector<Row> rows);

  /// Removes the row; NotFound if the id does not exist.
  Status Delete(RowId row_id);

  /// Replaces the row contents (same validation as Insert).
  Status Update(RowId row_id, Row row);

  /// Returns the row or nullptr.
  const Row* Get(RowId row_id) const;

  /// Creates a secondary index over `column_name`. Existing rows are
  /// back-filled. AlreadyExists if an index on the column exists.
  Status CreateIndex(const std::string& column_name, IndexKind kind);

  bool HasIndex(size_t column) const;

  /// Visits every row. The callback must not mutate the table.
  void Scan(const std::function<void(RowId, const Row&)>& fn) const;

  /// Returns ids of rows satisfying all `conditions`. Picks an index
  /// access path when one condition is indexable (equality on any index;
  /// range on a B-tree), otherwise falls back to a full scan.
  std::vector<RowId> SelectRowIds(
      const std::vector<ScanCondition>& conditions) const;

  /// Returns copies of rows satisfying all `conditions`.
  std::vector<Row> SelectRows(
      const std::vector<ScanCondition>& conditions) const;

  /// Removes all rows satisfying all `conditions`; returns count removed.
  size_t DeleteWhere(const std::vector<ScanCondition>& conditions);

  /// Removes every row (indexes stay registered).
  void Truncate();

  // ---- Transactions. -----------------------------------------------------

  /// Attaches (or detaches, with nullptr) an undo log; while attached,
  /// every mutation records its inverse. Managed by
  /// Database::BeginTransaction — call directly only in tests.
  void set_undo_log(UndoLog* undo) { undo_ = undo; }

  /// Re-inserts a row under its original id (rollback of a deletion).
  /// AlreadyExists if the id is live.
  Status RestoreRow(RowId row_id, Row row);

  /// Invariant auditor: every secondary index must hold exactly one
  /// entry per row whose key equals the row's column value (row-count
  /// parity, no stale or missing entries), and ordered indexes must
  /// visit keys in non-decreasing order. Internal naming the violated
  /// invariant. O(rows × indexes × log rows).
  Status CheckInvariants() const;

 private:
  Status ValidateRow(const Row& row) const;
  void IndexInsert(RowId row_id, const Row& row);
  void IndexRemove(RowId row_id, const Row& row);
  /// Picks the most selective usable condition; -1 if none is indexable.
  int ChooseAccessPath(const std::vector<ScanCondition>& conditions) const;
  static bool RowMatches(const Row& row,
                         const std::vector<ScanCondition>& conditions);

  /// Atomic twin of TableStats: the const select paths increment these
  /// from concurrent shard workers, so plain int64 fields would race.
  struct AtomicStats {
    std::atomic<int64_t> index_lookups{0};
    std::atomic<int64_t> full_scans{0};
    std::atomic<int64_t> rows_examined{0};
  };

  TableSchema schema_;
  std::map<RowId, Row> rows_;
  RowId next_row_id_ = 0;
  std::vector<std::unique_ptr<Index>> indexes_;  // At most one per column.
  UndoLog* undo_ = nullptr;
  mutable AtomicStats stats_;

  // Registry mirrors of stats_, resolved once at construction (handles
  // are stable; incrementing is a relaxed atomic add). Shared by every
  // table of the same name across database instances.
  obs::Counter* metric_index_lookups_;
  obs::Counter* metric_full_scans_;
  obs::Counter* metric_rows_examined_;
  obs::Counter* metric_rows_inserted_;
};

}  // namespace mdv::rdbms

#endif  // MDV_RDBMS_TABLE_H_
