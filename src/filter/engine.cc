#include "filter/engine.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <set>
#include <unordered_set>

#include "common/string_util.h"
#include "filter/predicate_index.h"
#include "filter/tables.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdbms/table.h"
#include "rdf/document.h"

namespace mdv::filter {

namespace {

/// Registry handles of the filter layer, resolved once. Counters mirror
/// FilterRunStats (accumulated across runs, see the struct docs); the
/// histograms hold per-stage latencies of FilterEngine::Run, matching
/// the span names of the per-run trace.
struct EngineMetrics {
  obs::MetricsRegistry& r = obs::DefaultMetrics();
  obs::Counter& runs = r.GetCounter("mdv.filter.runs_total");
  obs::Counter& delta_atoms = r.GetCounter("mdv.filter.delta_atoms_total");
  obs::Counter& triggering_matches =
      r.GetCounter("mdv.filter.triggering_matches_total");
  obs::Counter& groups_evaluated =
      r.GetCounter("mdv.filter.groups_evaluated_total");
  obs::Counter& members_evaluated =
      r.GetCounter("mdv.filter.members_evaluated_total");
  obs::Counter& join_matches = r.GetCounter("mdv.filter.join_matches_total");
  obs::Counter& index_probes = r.GetCounter("mdv.filter.index_probes_total");
  obs::Counter& index_hits = r.GetCounter("mdv.filter.index_hits_total");
  obs::Counter& scan_fallbacks =
      r.GetCounter("mdv.filter.scan_fallbacks_total");
  obs::Histogram& run_us = r.GetHistogram("mdv.filter.run_us");
  obs::Histogram& initial_iteration_us =
      r.GetHistogram("mdv.filter.initial_iteration_us");
  obs::Histogram& delta_join_us = r.GetHistogram("mdv.filter.delta_join_us");
  obs::Histogram& materialize_us =
      r.GetHistogram("mdv.filter.materialize_us");
  obs::Histogram& evaluate_new_rules_us =
      r.GetHistogram("mdv.filter.evaluate_new_rules_us");

  static EngineMetrics& Get() {
    static EngineMetrics& metrics = *new EngineMetrics();
    return metrics;
  }
};

using rdbms::CompareOp;
using rdbms::Row;
using rdbms::ScanCondition;
using rdbms::Table;
using rdbms::Value;

Value Int(int64_t v) { return Value(v); }
Value Str(std::string s) { return Value(std::move(s)); }

/// A comparison operand parsed once: its text plus the §3.3.4 numeric
/// reconversion (nullopt when the text is not a number). Hot paths parse
/// each rule constant and each delta-atom value a single time instead of
/// once per compared pair.
struct ParsedText {
  explicit ParsedText(const std::string& t)
      : text(t), num(Value{t}.TryNumeric()) {}

  const std::string& text;
  std::optional<double> num;
};

/// Compares two texts under `op`, numerically when both parse as numbers
/// (the reconversion of §3.3.4), lexicographically otherwise.
bool CompareParsed(const ParsedText& lhs, CompareOp op,
                   const ParsedText& rhs) {
  if (op == CompareOp::kContains) return Contains(lhs.text, rhs.text);
  if (lhs.num && rhs.num) {
    return rdbms::EvaluateCompare(Value(*lhs.num), op, Value(*rhs.num));
  }
  return rdbms::EvaluateCompare(Value(lhs.text), op, Value(rhs.text));
}

/// Numeric comparison only; false when either side is not a number.
/// Used for the ordered-operator rule tables, whose constants are
/// numeric by construction (§3.3.4).
bool CompareParsedNumeric(const ParsedText& lhs, CompareOp op,
                          const ParsedText& rhs) {
  if (!lhs.num || !rhs.num) return false;
  return rdbms::EvaluateCompare(Value(*lhs.num), op, Value(*rhs.num));
}

/// Convenience wrapper for cold paths comparing a pair once.
bool CompareTexts(const std::string& lhs, CompareOp op,
                  const std::string& rhs) {
  return CompareParsed(ParsedText(lhs), op, ParsedText(rhs));
}

/// Runs the post-run invariant auditors. On a violation the flight
/// recorder auto-dumps its event ring before the error propagates, so
/// the post-mortem has the pipeline history that led to the corruption.
Status RunInvariantAudits(rdbms::Database* db, RuleStore* store,
                          const char* site) {
  Status status = db->CheckInvariants();
  if (status.ok()) status = store->CheckConsistency();
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  if (!status.ok()) {
    recorder.Record(obs::FlightEventType::kAuditFail, 0, 0, 0,
                    status.message());
    recorder.AutoDump("invariant_audit");
    return status;
  }
  recorder.Record(obs::FlightEventType::kAuditPass, 0, 0, 0, site);
  return status;
}

}  // namespace

bool AuditInvariantsEnabled() {
  // Read-only env access; nothing in the process calls setenv.
  static const bool enabled =
      std::getenv("MDV_AUDIT_INVARIANTS") != nullptr;  // NOLINT(concurrency-mt-unsafe)
  return enabled;
}

FilterEngine::GroupedDelta FilterEngine::GroupDelta(
    const rdf::Statements& delta) {
  // Group the delta atoms by (class, property) and by value within each
  // group: every distinct (class, property) pays one bucket lookup and
  // every distinct value one probe, however many atoms carry it (batch
  // registrations repeat properties heavily). Subjects are referenced,
  // not copied; `delta` outlives the grouping.
  GroupedDelta groups;
  for (const rdf::Statement& atom : delta) {
    groups[{atom.subject_class, atom.predicate}][atom.object.text()]
        .push_back(&atom.subject);
  }
  return groups;
}

Status FilterEngine::MatchTriggeringRules(
    int shard, const rdf::Statements& delta, const GroupedDelta& grouped,
    const FilterOptions& options, FilterRunStats* stats,
    std::map<int64_t, MatchSet>* current) const {
  if (options.use_predicate_index) {
    return MatchTriggeringRulesIndexed(shard, grouped, stats, current);
  }
  return MatchTriggeringRulesScan(shard, delta, stats, current);
}

Status FilterEngine::MatchTriggeringRulesIndexed(
    int shard, const GroupedDelta& grouped, FilterRunStats* stats,
    std::map<int64_t, MatchSet>* current) const {
  obs::ScopedSpan span("filter.index_probe");
  const PredicateIndex& index = store_->predicate_index(shard);

  auto add = [&](int64_t rule_id, const std::string& uri) {
    (*current)[rule_id].insert(uri);
    ++stats->index_hits;
  };

  std::vector<int64_t> matched;
  for (const auto& [key, subjects_by_text] : grouped) {
    const std::string& cls = key.first;
    const std::string& prop = key.second;

    // Predicate-less triggering rules match any resource of their class;
    // drive them from the synthetic rdf#subject atom (one per resource).
    if (prop == rdf::kRdfSubjectProperty) {
      matched.clear();
      index.MatchClass(cls, &matched);
      if (!matched.empty()) {
        for (const auto& [text, subjects] : subjects_by_text) {
          for (const std::string* subject : subjects) {
            for (int64_t rule_id : matched) add(rule_id, *subject);
          }
        }
      }
    }

    const PredicateIndex::Bucket* bucket = index.FindBucket(cls, prop);
    if (bucket == nullptr) continue;
    for (const auto& [text, subjects] : subjects_by_text) {
      ParsedText value(text);
      matched.clear();
      index.Match(*bucket, value.text, value.num, &matched);
      ++stats->index_probes;
      for (int64_t rule_id : matched) {
        for (const std::string* subject : subjects) add(rule_id, *subject);
      }
    }
  }
  span.AddAttribute("probes", stats->index_probes);
  span.AddAttribute("hits", stats->index_hits);
  return Status::OK();
}

Status FilterEngine::MatchTriggeringRulesScan(
    int shard, const rdf::Statements& delta, FilterRunStats* stats,
    std::map<int64_t, MatchSet>* current) const {
  obs::ScopedSpan span("filter.table_scan");
  const Table* cls_rules =
      db_->GetTable(ShardTableName(kFilterRulesCLS, shard));
  const Table* eqs = db_->GetTable(ShardTableName(kFilterRulesEQS, shard));

  auto add = [&](int64_t rule_id, const std::string& uri) {
    (*current)[rule_id].insert(uri);
  };

  for (const rdf::Statement& atom : delta) {
    const std::string& cls = atom.subject_class;
    const std::string& prop = atom.predicate;
    const std::string text = atom.object.text();
    ParsedText value(text);
    ++stats->scan_fallbacks;

    // Predicate-less triggering rules match any resource of their class;
    // drive them from the synthetic rdf#subject atom (one per resource).
    if (prop == rdf::kRdfSubjectProperty) {
      for (const Row& row : cls_rules->SelectRows(
               {ScanCondition{1, CompareOp::kEq, Str(cls)}})) {
        add(row[0].as_int(), atom.subject);
      }
    }

    // String equality: one point lookup on the value index. This is the
    // access path that makes OID rules independent of the rule base size
    // (Figure 11).
    for (const Row& row : eqs->SelectRows(
             {ScanCondition{FilterRulesCols::kValue, CompareOp::kEq,
                            Str(text)},
              ScanCondition{FilterRulesCols::kClass, CompareOp::kEq,
                            Str(cls)},
              ScanCondition{FilterRulesCols::kProperty, CompareOp::kEq,
                            Str(prop)}})) {
      add(row[FilterRulesCols::kRuleId].as_int(), atom.subject);
    }

    // Operator tables are probed by property and the constant is
    // reconverted per row (§3.3.4) — their cost grows with the number of
    // rules on the same property (Figures 12-15).
    for (const OperatorTableInfo& info : OperatorTableInfos()) {
      if (std::string(info.table) == kFilterRulesEQS) continue;  // Above.
      for (const Row& row :
           db_->GetTable(ShardTableName(info.table, shard))
               ->SelectRows(
               {ScanCondition{FilterRulesCols::kProperty, CompareOp::kEq,
                              Str(prop)},
                ScanCondition{FilterRulesCols::kClass, CompareOp::kEq,
                              Str(cls)}})) {
        ParsedText constant(row[FilterRulesCols::kValue].as_string());
        bool matched = info.numeric_only
                           ? CompareParsedNumeric(value, info.op, constant)
                           : CompareParsed(value, info.op, constant);
        if (matched) {
          add(row[FilterRulesCols::kRuleId].as_int(), atom.subject);
        }
      }
    }
  }
  return Status::OK();
}

std::vector<std::string> FilterEngine::MaterializedOf(int64_t rule_id) const {
  const Table* mat = db_->GetTable(
      ShardTableName(kMaterializedResults, store_->ShardOf(rule_id)));
  std::vector<std::string> out;
  for (const Row& row : mat->SelectRows({ScanCondition{
           ResultCols::kRuleId, CompareOp::kEq, Int(rule_id)}})) {
    out.push_back(row[ResultCols::kUri].as_string());
  }
  return out;
}

std::vector<std::string> FilterEngine::SideValues(
    const std::string& uri, const std::string& property) const {
  if (property.empty()) return {uri};
  const Table* data = db_->GetTable(kFilterData);
  std::vector<std::string> out;
  for (const Row& row : data->SelectRows(
           {ScanCondition{FilterDataCols::kUri, CompareOp::kEq, Str(uri)},
            ScanCondition{FilterDataCols::kProperty, CompareOp::kEq,
                          Str(property)}})) {
    out.push_back(row[FilterDataCols::kValue].as_string());
  }
  return out;
}

std::vector<std::string> FilterEngine::PartnersByValue(
    const std::string& value, const std::string& property,
    const std::string& partner_class) const {
  if (property.empty()) return {value};  // The value *is* the partner uri.
  const Table* data = db_->GetTable(kFilterData);
  std::vector<std::string> out;
  for (const Row& row : data->SelectRows(
           {ScanCondition{FilterDataCols::kValue, CompareOp::kEq, Str(value)},
            ScanCondition{FilterDataCols::kProperty, CompareOp::kEq,
                          Str(property)},
            ScanCondition{FilterDataCols::kClass, CompareOp::kEq,
                          Str(partner_class)}})) {
    out.push_back(row[FilterDataCols::kUri].as_string());
  }
  return out;
}

Status FilterEngine::AppendMaterialized(int64_t rule_id,
                                        const std::vector<std::string>& uris) {
  Table* mat = db_->GetTable(
      ShardTableName(kMaterializedResults, store_->ShardOf(rule_id)));
  std::vector<Row> rows;
  rows.reserve(uris.size());
  for (const std::string& uri : uris) {
    rows.push_back({Str(uri), Int(rule_id)});
  }
  return mat->InsertRows(std::move(rows));
}

Result<FilterRunResult> FilterEngine::Run(const rdf::Statements& delta,
                                          const FilterOptions& options) {
  EngineMetrics& metrics = EngineMetrics::Get();
  obs::ScopedSpan run_span("filter.run", &metrics.run_us);
  FilterRunResult result;
  result.stats.delta_atoms = static_cast<int64_t>(delta.size());
  run_span.AddAttribute("delta_atoms", result.stats.delta_atoms);

  const int total_shards = store_->total_shards();
  const GroupedDelta grouped =
      options.use_predicate_index ? GroupDelta(delta) : GroupedDelta{};
  if (total_shards == 1) {
    MDV_RETURN_IF_ERROR(RunShard(0, delta, grouped, options, nullptr,
                                 run_span.context(), &result));
  } else {
    // Fan the regular shards out (fork-join runner when configured and
    // outside a transaction — the undo log is not thread-safe), then run
    // the overflow shard, then merge deterministically.
    const int regular = store_->num_shards();
    std::vector<FilterRunResult> outcomes(static_cast<size_t>(regular));
    std::vector<Status> statuses(static_cast<size_t>(regular), Status::OK());
    // Capture the run span's context for the shard tasks: runner helpers
    // have an empty thread-local span stack, so without the explicit
    // parent every filter.shard_run span would start a detached trace.
    const obs::SpanContext run_context = run_span.context();
    std::vector<std::function<void()>> tasks;
    tasks.reserve(static_cast<size_t>(regular));
    for (int shard = 0; shard < regular; ++shard) {
      tasks.push_back([this, shard, run_context, &delta, &grouped, &options,
                       &outcomes, &statuses] {
        statuses[static_cast<size_t>(shard)] =
            RunShard(shard, delta, grouped, options, nullptr, run_context,
                     &outcomes[static_cast<size_t>(shard)]);
      });
    }
    if (pool_ != nullptr && !db_->InTransaction()) {
      pool_->Run(tasks);
    } else {
      for (const auto& task : tasks) task();
    }
    for (const Status& status : statuses) MDV_RETURN_IF_ERROR(status);

    // Overflow pass: rules whose atoms span shards run last, seeded with
    // the regular shards' fresh matches (their inputs can live in any
    // shard). Skipped when no rule spans shards.
    const int overflow = store_->overflow_shard();
    if (store_->ShardRuleCount(overflow) > 0) {
      ForeignSeeds seeds;
      for (const FilterRunResult& outcome : outcomes) {
        for (const auto& [rule_id, uris] : outcome.matches) {
          for (const RuleStore::Dependent& dep :
               store_->DependentsOf(rule_id)) {
            if (store_->ShardOf(dep.target) == overflow) {
              seeds[rule_id] = uris;
              break;
            }
          }
        }
      }
      FilterRunResult overflow_outcome;
      MDV_RETURN_IF_ERROR(RunShard(overflow, delta, grouped, options, &seeds,
                                   run_context, &overflow_outcome));
      outcomes.push_back(std::move(overflow_outcome));
    }

    // Deterministic merge: shards own disjoint rule sets, so collecting
    // into the result map yields stable rule-id order regardless of
    // shard completion order; stats sum, iterations take the deepest
    // shard.
    for (FilterRunResult& outcome : outcomes) {
      for (auto& [rule_id, uris] : outcome.matches) {
        result.matches[rule_id] = std::move(uris);
      }
      result.iterations = std::max(result.iterations, outcome.iterations);
      result.stats.triggering_matches += outcome.stats.triggering_matches;
      result.stats.groups_evaluated += outcome.stats.groups_evaluated;
      result.stats.members_evaluated += outcome.stats.members_evaluated;
      result.stats.join_matches += outcome.stats.join_matches;
      result.stats.index_probes += outcome.stats.index_probes;
      result.stats.index_hits += outcome.stats.index_hits;
      result.stats.scan_fallbacks += outcome.stats.scan_fallbacks;
    }
  }

  // Mirror the run's counters into the process-wide registry (the
  // accumulating view of FilterRunStats; see the struct docs).
  metrics.runs.Increment();
  metrics.delta_atoms.Add(result.stats.delta_atoms);
  metrics.triggering_matches.Add(result.stats.triggering_matches);
  metrics.groups_evaluated.Add(result.stats.groups_evaluated);
  metrics.members_evaluated.Add(result.stats.members_evaluated);
  metrics.join_matches.Add(result.stats.join_matches);
  metrics.index_probes.Add(result.stats.index_probes);
  metrics.index_hits.Add(result.stats.index_hits);
  metrics.scan_fallbacks.Add(result.stats.scan_fallbacks);
  run_span.AddAttribute("iterations",
                        static_cast<int64_t>(result.iterations));
  run_span.AddAttribute("triggering_matches",
                        result.stats.triggering_matches);
  run_span.AddAttribute("join_matches", result.stats.join_matches);

  if (options.audit_invariants || AuditInvariantsEnabled()) {
    MDV_RETURN_IF_ERROR(RunInvariantAudits(db_, store_, "filter.run"));
  }
  return result;
}

Status FilterEngine::RunShard(int shard, const rdf::Statements& delta,
                              const GroupedDelta& grouped,
                              const FilterOptions& options,
                              const ForeignSeeds* foreign_seeds,
                              obs::SpanContext parent, FilterRunResult* out) {
  EngineMetrics& metrics = EngineMetrics::Get();
  FilterRunResult& result = *out;
  const bool sharded = store_->total_shards() > 1;

  // Per-shard observability: a span per shard pass (parented explicitly
  // to the filter.run span — the thread-local stack is empty on runner
  // helpers) and `mdv.filter.shard.<k>.*` counters. Emitted only when
  // sharding is on, so the single-shard profile stays identical to the
  // paper's engine.
  std::optional<obs::ScopedSpan> shard_span;
  if (sharded) {
    shard_span.emplace("filter.shard_run", parent);
    shard_span->AddAttribute("shard", static_cast<int64_t>(shard));
    shard_span->AddAttribute("shard_rules", store_->ShardRuleCount(shard));
    obs::FlightRecorder::Default().Record(
        obs::FlightEventType::kShardPassBegin, shard,
        static_cast<int64_t>(delta.size()));
  }
  std::set<int64_t> foreign_rules;
  std::map<int64_t, MatchSet> all_matches;

  // Per-run snapshot of MaterializedResults, loaded once per affected
  // rule (replacing a point query per (rule, uri) pair) and kept in sync
  // with this run's own appends.
  std::unordered_map<int64_t, MatchSet> materialized_cache;
  auto materialized_of = [&](int64_t rule_id) -> const MatchSet& {
    auto it = materialized_cache.find(rule_id);
    if (it == materialized_cache.end()) {
      std::vector<std::string> uris = MaterializedOf(rule_id);
      it = materialized_cache
               .emplace(rule_id, MatchSet(uris.begin(), uris.end()))
               .first;
    }
    return it->second;
  };
  auto append_materialized = [&](int64_t rule_id,
                                 const MatchSet& uris) -> Status {
    MDV_RETURN_IF_ERROR(
        AppendMaterialized(rule_id, {uris.begin(), uris.end()}));
    auto it = materialized_cache.find(rule_id);
    if (it != materialized_cache.end()) {
      it->second.insert(uris.begin(), uris.end());
    }
    return Status::OK();
  };

  // ---- Initial iteration: determine affected triggering rules. --------
  std::map<int64_t, MatchSet> current;
  {
    obs::ScopedSpan init_span("filter.initial_iteration",
                              &metrics.initial_iteration_us);
    MDV_RETURN_IF_ERROR(
        MatchTriggeringRules(shard, delta, grouped, options, &result.stats,
                             &current));

    if (options.update_materialized) {
      // Suppress matches that were derived (and published) by earlier
      // runs.
      for (auto it = current.begin(); it != current.end();) {
        MatchSet& uris = it->second;
        const MatchSet& materialized = materialized_of(it->first);
        if (!materialized.empty()) {
          for (auto uit = uris.begin(); uit != uris.end();) {
            if (materialized.count(*uit) != 0) {
              uit = uris.erase(uit);
            } else {
              ++uit;
            }
          }
        }
        it = uris.empty() ? current.erase(it) : std::next(it);
      }
    }
    init_span.AddAttribute("affected_rules",
                           static_cast<int64_t>(current.size()));
  }

  for (const auto& [rule_id, uris] : current) {
    result.stats.triggering_matches += static_cast<int64_t>(uris.size());
  }

  // Seed the overflow pass with the regular shards' fresh matches: they
  // drive the join agenda like local triggering matches, but stay out of
  // the stats, the materialization and the output (their own shard
  // already accounted for them).
  if (foreign_seeds != nullptr) {
    for (const auto& [rule_id, uris] : *foreign_seeds) {
      foreign_rules.insert(rule_id);
      current[rule_id].insert(uris.begin(), uris.end());
    }
  }

  // Reverse index of this run's matches (uri → rules), used by the
  // grouped join evaluation to split combined results back to members.
  std::unordered_map<std::string, std::set<int64_t>> run_rules_of_uri;

  // All rules whose result set contains `uri`: this run's matches plus
  // the materialized state (one indexed lookup per table). A regular
  // shard only ever joins rules it owns; the overflow shard joins rules
  // of any shard, so it consults every shard's MaterializedResults.
  std::vector<const rdbms::Table*> materialized_tables;
  if (sharded && shard == store_->overflow_shard()) {
    for (int s = 0; s < store_->total_shards(); ++s) {
      materialized_tables.push_back(
          db_->GetTable(ShardTableName(kMaterializedResults, s)));
    }
  } else {
    materialized_tables.push_back(
        db_->GetTable(ShardTableName(kMaterializedResults, shard)));
  }
  auto rules_containing = [&](const std::string& uri) {
    std::set<int64_t> rules;
    auto rit = run_rules_of_uri.find(uri);
    if (rit != run_rules_of_uri.end()) rules = rit->second;
    for (const rdbms::Table* table : materialized_tables) {
      for (const Row& row : table->SelectRows(
               {ScanCondition{ResultCols::kUri, CompareOp::kEq, Value(uri)}})) {
        rules.insert(row[ResultCols::kRuleId].as_int());
      }
    }
    return rules;
  };

  // ---- Iterate join-rule evaluation until no new matches. --------------
  while (!current.empty()) {
    {
      // Materialization: collect the iteration's matches and append
      // them to MaterializedResults.
      obs::ScopedSpan mat_span("filter.materialize",
                               &metrics.materialize_us);
      for (const auto& [rule_id, uris] : current) {
        MatchSet& sink = all_matches[rule_id];
        sink.insert(uris.begin(), uris.end());
        for (const std::string& uri : uris) {
          run_rules_of_uri[uri].insert(rule_id);
        }
      }
      if (options.update_materialized) {
        for (const auto& [rule_id, uris] : current) {
          if (foreign_rules.count(rule_id) != 0) continue;  // Owner did it.
          if (store_->HasDependents(rule_id)) {
            MDV_RETURN_IF_ERROR(append_materialized(rule_id, uris));
          }
        }
      }
    }

    // Agenda: rule groups with at least one member receiving new input.
    // Only members of this shard are evaluated here; dependents placed
    // in the overflow shard are reached by the overflow pass through its
    // foreign seeds.
    std::map<int64_t, std::set<int64_t>> agenda;
    for (const auto& [rule_id, uris] : current) {
      for (const RuleStore::Dependent& dep : store_->DependentsOf(rule_id)) {
        if (store_->ShardOf(dep.target) != shard) continue;
        agenda[dep.group_id].insert(dep.target);
      }
    }
    if (agenda.empty()) break;
    ++result.iterations;

    obs::ScopedSpan join_span("filter.delta_join", &metrics.delta_join_us);
    join_span.AddAttribute("iteration",
                           static_cast<int64_t>(result.iterations));
    join_span.AddAttribute("groups", static_cast<int64_t>(agenda.size()));

    std::map<int64_t, MatchSet> next;
    for (const auto& [group_id, members] : agenda) {
      ++result.stats.groups_evaluated;
      result.stats.members_evaluated += static_cast<int64_t>(members.size());
      MDV_ASSIGN_OR_RETURN(RuleStore::GroupSpec spec,
                           store_->GroupSpecOf(group_id));

      // Member wiring: which (left, right) input pairs feed which
      // members. Splitting the combined result back to members is a map
      // lookup per candidate pair (§3.3.3, Figure 6).
      std::map<std::pair<int64_t, int64_t>, std::vector<int64_t>>
          members_by_children;
      std::set<int64_t> left_children;
      std::set<int64_t> right_children;
      std::map<int64_t, RuleStore::JoinInputs> inputs_of;
      for (int64_t member : members) {
        MDV_ASSIGN_OR_RETURN(RuleStore::JoinInputs inputs,
                             store_->InputsOf(member));
        members_by_children[{inputs.left, inputs.right}].push_back(member);
        left_children.insert(inputs.left);
        right_children.insert(inputs.right);
        inputs_of.emplace(member, inputs);
      }

      std::map<int64_t, MatchSet> out;  // member → registered resources.

      // Routes one joined pair to every member whose inputs contain the
      // two resources.
      auto emit_pair = [&](const std::string& left_uri,
                           const std::string& right_uri) {
        std::set<int64_t> lrules = rules_containing(left_uri);
        std::set<int64_t> rrules = rules_containing(right_uri);
        const std::string& registered =
            spec.register_side == 0 ? left_uri : right_uri;
        for (int64_t lc : lrules) {
          if (left_children.count(lc) == 0) continue;
          for (int64_t rc : rrules) {
            if (right_children.count(rc) == 0) continue;
            auto mit = members_by_children.find({lc, rc});
            if (mit == members_by_children.end()) continue;
            for (int64_t member : mit->second) {
              out[member].insert(registered);
            }
          }
        }
      };

      if (spec.op == CompareOp::kEq) {
        // Combined, delta-driven equality join, evaluated once for the
        // whole group: resources newly matched this iteration on either
        // side produce candidate pairs via the shared join predicate;
        // the pairs are split to members afterwards.
        auto drive = [&](bool new_is_left) {
          const std::set<int64_t>& children =
              new_is_left ? left_children : right_children;
          const std::string& new_prop =
              new_is_left ? spec.lhs_property : spec.rhs_property;
          const std::string& other_prop =
              new_is_left ? spec.rhs_property : spec.lhs_property;
          const std::string& other_class =
              new_is_left ? spec.right_class : spec.left_class;
          MatchSet new_uris;
          for (int64_t child : children) {
            auto cit = current.find(child);
            if (cit == current.end()) continue;
            new_uris.insert(cit->second.begin(), cit->second.end());
          }
          for (const std::string& uri : new_uris) {
            for (const std::string& value : SideValues(uri, new_prop)) {
              for (const std::string& partner :
                   PartnersByValue(value, other_prop, other_class)) {
                if (new_is_left) {
                  emit_pair(uri, partner);
                } else {
                  emit_pair(partner, uri);
                }
              }
            }
          }
        };
        drive(/*new_is_left=*/true);
        drive(/*new_is_left=*/false);
      } else {
        // Non-equality joins cannot use the reverse value lookup; they
        // scan the other side's results per member (rare in practice).
        for (int64_t member : members) {
          const RuleStore::JoinInputs& inputs = inputs_of.at(member);
          auto drive = [&](int64_t new_child, int64_t other_child,
                           bool new_is_left) {
            auto it = current.find(new_child);
            if (it == current.end()) return;
            const std::string& new_prop =
                new_is_left ? spec.lhs_property : spec.rhs_property;
            const std::string& other_prop =
                new_is_left ? spec.rhs_property : spec.lhs_property;
            const bool register_new_side =
                (spec.register_side == 0) == new_is_left;
            const MatchSet& mat_others = materialized_of(other_child);
            std::vector<std::string> others(mat_others.begin(),
                                            mat_others.end());
            auto oit = all_matches.find(other_child);
            if (oit != all_matches.end()) {
              others.insert(others.end(), oit->second.begin(),
                            oit->second.end());
            }
            for (const std::string& uri : it->second) {
              for (const std::string& value : SideValues(uri, new_prop)) {
                for (const std::string& partner : others) {
                  for (const std::string& pv :
                       SideValues(partner, other_prop)) {
                    bool ok = new_is_left ? CompareTexts(value, spec.op, pv)
                                          : CompareTexts(pv, spec.op, value);
                    if (ok) {
                      out[member].insert(register_new_side ? uri : partner);
                    }
                  }
                }
              }
            }
          };
          drive(inputs.left, inputs.right, /*new_is_left=*/true);
          drive(inputs.right, inputs.left, /*new_is_left=*/false);
        }
      }

      // Keep only matches that are new per member.
      for (auto& [member, uris] : out) {
        MatchSet fresh;
        for (const std::string& uri : uris) {
          auto known = all_matches.find(member);
          if (known != all_matches.end() && known->second.count(uri) != 0) {
            continue;
          }
          if (options.update_materialized &&
              materialized_of(member).count(uri) != 0) {
            continue;
          }
          fresh.insert(uri);
        }
        if (!fresh.empty()) {
          result.stats.join_matches += static_cast<int64_t>(fresh.size());
          next[member].insert(fresh.begin(), fresh.end());
        }
      }
    }
    current = std::move(next);
  }

  for (auto& [rule_id, uris] : all_matches) {
    if (foreign_rules.count(rule_id) != 0) continue;  // Owner reports it.
    result.matches[rule_id] =
        std::vector<std::string>(uris.begin(), uris.end());
    std::sort(result.matches[rule_id].begin(), result.matches[rule_id].end());
  }

  if (sharded) {
    obs::MetricsRegistry& registry = obs::DefaultMetrics();
    const std::string prefix =
        "mdv.filter.shard." + std::to_string(shard) + ".";
    registry.GetCounter(prefix + "runs_total").Increment();
    registry.GetCounter(prefix + "triggering_matches_total")
        .Add(result.stats.triggering_matches);
    registry.GetCounter(prefix + "join_matches_total")
        .Add(result.stats.join_matches);
    shard_span->AddAttribute("iterations",
                             static_cast<int64_t>(result.iterations));
    shard_span->AddAttribute("triggering_matches",
                             result.stats.triggering_matches);
    shard_span->AddAttribute("join_matches", result.stats.join_matches);
    obs::FlightRecorder::Default().Record(
        obs::FlightEventType::kShardPassEnd, shard,
        static_cast<int64_t>(result.matches.size()),
        static_cast<int64_t>(result.iterations));
  }
  return Status::OK();
}

Result<FilterRunResult> FilterEngine::EvaluateNewRules(
    const std::vector<int64_t>& new_rules) {
  obs::ScopedSpan span("filter.evaluate_new_rules",
                       &EngineMetrics::Get().evaluate_new_rules_us);
  span.AddAttribute("new_rules", static_cast<int64_t>(new_rules.size()));
  FilterRunResult result;
  const std::unordered_set<int64_t> new_rule_set(new_rules.begin(),
                                                 new_rules.end());
  std::map<int64_t, MatchSet> fresh;
  const Table* atomic = db_->GetTable(kAtomicRules);
  const Table* data = db_->GetTable(kFilterData);

  // Returns the full result set of `rule_id`, evaluating it from scratch
  // (recursively) when it is new or was never materialized.
  std::function<Result<MatchSet>(int64_t)> ensure =
      [&](int64_t rule_id) -> Result<MatchSet> {
    auto fit = fresh.find(rule_id);
    if (fit != fresh.end()) return fit->second;
    std::vector<std::string> mat = MaterializedOf(rule_id);
    bool is_new = new_rule_set.count(rule_id) != 0;
    if (!is_new && !mat.empty()) {
      return MatchSet(mat.begin(), mat.end());
    }
    const int shard = store_->ShardOf(rule_id);

    std::vector<Row> rows = atomic->SelectRows({ScanCondition{
        AtomicRulesCols::kRuleId, CompareOp::kEq, Int(rule_id)}});
    if (rows.empty()) {
      return Status::NotFound("atomic rule " + std::to_string(rule_id));
    }
    const Row& rule = rows[0];
    MatchSet out;

    if (rule[AtomicRulesCols::kKind].as_string() == "T") {
      // Reconstruct the triggering spec from the owning shard's
      // FilterRules tables and evaluate it over the full FilterData
      // contents.
      const std::string& cls = rule[AtomicRulesCols::kType].as_string();
      auto scan_rule_rows = [&](const std::string& table_name, CompareOp op,
                                bool numeric_only) {
        const Table* table = db_->GetTable(ShardTableName(table_name, shard));
        for (const Row& rrow : table->SelectRows({ScanCondition{
                 FilterRulesCols::kRuleId, CompareOp::kEq, Int(rule_id)}})) {
          const std::string& prop =
              rrow[FilterRulesCols::kProperty].as_string();
          // Parse the rule constant once, not once per probed data row.
          ParsedText constant(rrow[FilterRulesCols::kValue].as_string());
          if (numeric_only && !constant.num) continue;  // Can never match.
          for (const Row& drow : data->SelectRows(
                   {ScanCondition{FilterDataCols::kProperty, CompareOp::kEq,
                                  Str(prop)},
                    ScanCondition{FilterDataCols::kClass, CompareOp::kEq,
                                  Str(cls)}})) {
            ParsedText text(drow[FilterDataCols::kValue].as_string());
            bool matched = numeric_only
                               ? CompareParsedNumeric(text, op, constant)
                               : CompareParsed(text, op, constant);
            if (matched) {
              out.insert(drow[FilterDataCols::kUri].as_string());
            }
          }
        }
      };
      // Predicate-less class rules.
      const Table* cls_rules =
          db_->GetTable(ShardTableName(kFilterRulesCLS, shard));
      if (!cls_rules
               ->SelectRowIds({ScanCondition{FilterRulesCols::kRuleId,
                                             CompareOp::kEq, Int(rule_id)}})
               .empty()) {
        for (const Row& drow : data->SelectRows(
                 {ScanCondition{FilterDataCols::kProperty, CompareOp::kEq,
                                Str(rdf::kRdfSubjectProperty)},
                  ScanCondition{FilterDataCols::kClass, CompareOp::kEq,
                                Str(cls)}})) {
          out.insert(drow[FilterDataCols::kUri].as_string());
        }
      }
      for (const OperatorTableInfo& info : OperatorTableInfos()) {
        scan_rule_rows(info.table, info.op, info.numeric_only);
      }
    } else {
      // Join rule: evaluate over the full results of both children.
      MDV_ASSIGN_OR_RETURN(RuleStore::JoinInputs inputs,
                           store_->InputsOf(rule_id));
      MDV_ASSIGN_OR_RETURN(
          RuleStore::GroupSpec spec,
          store_->GroupSpecOf(rule[AtomicRulesCols::kGroupId].as_int()));
      MDV_ASSIGN_OR_RETURN(MatchSet left, ensure(inputs.left));
      MDV_ASSIGN_OR_RETURN(MatchSet right, ensure(inputs.right));
      for (const std::string& uri : left) {
        for (const std::string& value : SideValues(uri, spec.lhs_property)) {
          if (spec.op == CompareOp::kEq) {
            for (const std::string& partner :
                 PartnersByValue(value, spec.rhs_property,
                                 spec.right_class)) {
              if (right.count(partner) != 0) {
                out.insert(spec.register_side == 0 ? uri : partner);
              }
            }
          } else {
            for (const std::string& partner : right) {
              for (const std::string& pv :
                   SideValues(partner, spec.rhs_property)) {
                if (CompareTexts(value, spec.op, pv)) {
                  out.insert(spec.register_side == 0 ? uri : partner);
                }
              }
            }
          }
        }
      }
    }

    fresh[rule_id] = out;
    if (store_->HasDependents(rule_id) && !out.empty()) {
      // Materialize only rows not present yet (a re-evaluated rule may
      // already be partially materialized); `mat` was snapshotted above,
      // so the check is a set probe, not a point query per uri.
      const MatchSet materialized(mat.begin(), mat.end());
      std::vector<std::string> missing;
      for (const std::string& uri : out) {
        if (materialized.count(uri) == 0) missing.push_back(uri);
      }
      MDV_RETURN_IF_ERROR(AppendMaterialized(rule_id, missing));
    }
    return out;
  };

  for (int64_t rule_id : new_rules) {
    MDV_ASSIGN_OR_RETURN(MatchSet matches, ensure(rule_id));
    std::vector<std::string>& sorted = result.matches[rule_id];
    sorted.assign(matches.begin(), matches.end());
    std::sort(sorted.begin(), sorted.end());
  }

  if (AuditInvariantsEnabled()) {
    MDV_RETURN_IF_ERROR(
        RunInvariantAudits(db_, store_, "filter.evaluate_new_rules"));
  }
  return result;
}

}  // namespace mdv::filter
