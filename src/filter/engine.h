#ifndef MDV_FILTER_ENGINE_H_
#define MDV_FILTER_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "filter/fork_join.h"
#include "filter/rule_store.h"
#include "obs/trace.h"
#include "rdbms/database.h"
#include "rdf/statement.h"

namespace mdv::filter {

/// Execution options for one filter run.
struct FilterOptions {
  /// When true (normal registration of new metadata), newly matched
  /// resources are appended to MaterializedResults and matches already
  /// materialized are suppressed from the output (they were published
  /// before). When false (the probe passes of the update/delete protocol,
  /// §3.5), the run re-derives matches for existing data and writes
  /// nothing.
  bool update_materialized = true;

  /// When true (default), the initial iteration matches delta atoms via
  /// RuleStore's in-memory predicate index (binary search / hash probe
  /// per atom). When false it scans the FilterRules* tables row by row,
  /// reconverting constants per row — the seed access path, kept for
  /// differential testing and for the fig12-15 ablation.
  bool use_predicate_index = true;

  /// When true, the engine audits the runtime invariants after the run:
  /// Database::CheckInvariants (index↔heap consistency of every filter
  /// table) and RuleStore::CheckConsistency (predicate index vs the
  /// FilterRules* tables). A violation turns a successful run into an
  /// Internal error. Also forced on for every run when the
  /// MDV_AUDIT_INVARIANTS environment variable is set (the test suites
  /// run with it enabled).
  bool audit_invariants = false;
};

/// True when MDV_AUDIT_INVARIANTS is set in the environment (read once).
bool AuditInvariantsEnabled();

/// Construction-time options of the engine.
struct EngineOptions {
  /// Threads (the caller included) that fan a run out across rule-base
  /// shards. Effective only when the RuleStore is sharded
  /// (num_shards > 1); 1 keeps every run on the calling thread. The
  /// engine also falls back to sequential shard execution inside a
  /// database transaction (the undo log is not thread-safe).
  int num_workers = 1;
};

/// Execution counters of one filter run, exposed for benchmarks and for
/// observability of the algorithm's behaviour.
///
/// Each field documents the exact site that increments it. The struct is
/// the *per-run* view; FilterEngine::Run mirrors every field into
/// accumulating `mdv.filter.*_total` counters of obs::DefaultMetrics()
/// at the end of the run (asserted consistent by filter_stats_test.cc),
/// so MetricsSnapshot() reports the same quantities across all runs of
/// the process.
struct FilterRunStats {
  /// Input atoms of the run. Set once at the top of FilterEngine::Run
  /// from `delta.size()`.
  int64_t delta_atoms = 0;
  /// (rule, uri) pairs left after the initial iteration, post-dedup and
  /// post-suppression of already-materialized matches. Summed in Run
  /// over `current` right before the join loop starts.
  int64_t triggering_matches = 0;
  /// Rule-group evaluations: +1 per agenda entry per join iteration
  /// (top of the group loop in Run). With rule groups disabled every
  /// member is its own group, so this equals members_evaluated.
  int64_t groups_evaluated = 0;
  /// Join-rule members on the agenda (members whose input rules received
  /// new matches): += members.size() per evaluated group in Run.
  int64_t members_evaluated = 0;
  /// Genuinely new (join rule, uri) pairs: += fresh.size() in Run's
  /// per-member dedup step at the bottom of the group loop.
  int64_t join_matches = 0;
  /// Predicate-index probes of the initial iteration: +1 per distinct
  /// (class, property, value) among the delta atoms, in
  /// MatchTriggeringRulesIndexed. 0 when the index is off.
  int64_t index_probes = 0;
  /// (rule, uri) emissions from the predicate index: +1 in the `add`
  /// lambda of MatchTriggeringRulesIndexed (pre-dedup, so it may exceed
  /// triggering_matches).
  int64_t index_hits = 0;
  /// Delta atoms matched via the legacy FilterRules table scan: +1 per
  /// atom in MatchTriggeringRulesScan (0 when the index is on).
  int64_t scan_fallbacks = 0;
};

/// Result of one filter run: for every affected atomic rule, the URI
/// references of the resources it newly matched, plus run statistics.
struct FilterRunResult {
  std::map<int64_t, std::vector<std::string>> matches;
  int iterations = 0;  ///< Join-rule iterations after the initial step.
  FilterRunStats stats;

  const std::vector<std::string>* MatchesFor(int64_t rule_id) const {
    auto it = matches.find(rule_id);
    return it == matches.end() ? nullptr : &it->second;
  }
};

/// The filter algorithm (§3.4): matches document atoms against the
/// decomposed rule base held in the filter tables.
///
/// A run proceeds in two phases. The *initial iteration* joins the delta
/// atoms with the FilterRules* tables to determine all affected
/// triggering rules. Subsequent iterations evaluate the join rules that
/// depend on the rules matched so far (via RuleDependencies), rule group
/// by rule group, incrementally: only resources newly matched this run
/// drive the evaluation, with the other join side completed from
/// MaterializedResults. The run terminates when an iteration produces no
/// new matches; termination is guaranteed because the dependency graph
/// is acyclic.
/// When the rule store is sharded, a run fans out: each regular shard
/// executes the two-phase algorithm independently over its own table set
/// and predicate index (in parallel on the fork-join runner when
/// `EngineOptions::num_workers` > 1), then the overflow shard — whose
/// rules may depend on rules of any regular shard — runs last, seeded
/// with the regular shards' fresh matches. Per-shard results merge
/// deterministically: matches in stable rule-id order, stats summed
/// (iterations = max).
///
/// The engine itself is externally synchronized (one Run at a time, no
/// concurrent RuleStore mutation); parallelism lives strictly inside a
/// run.
class FilterEngine {
 public:
  FilterEngine(rdbms::Database* db, RuleStore* rule_store,
               EngineOptions options = EngineOptions{})
      : db_(db), store_(rule_store), options_(options) {
    if (options_.num_workers > 1 && store_->total_shards() > 1) {
      pool_ = std::make_unique<ForkJoinRunner>(options_.num_workers);
    }
  }

  FilterEngine(const FilterEngine&) = delete;
  FilterEngine& operator=(const FilterEngine&) = delete;

  const RuleStore& rule_store() const { return *store_; }

  /// Runs the filter with `delta` (the atoms of newly registered or
  /// re-registered documents) as input. The delta atoms must already be
  /// present in FilterData if `options.update_materialized` is true
  /// (join evaluation resolves property values through FilterData).
  Result<FilterRunResult> Run(const rdf::Statements& delta,
                              const FilterOptions& options = FilterOptions{});

  /// Seeds newly created atomic rules (from RuleStore::RegisterTree)
  /// against the *entire* existing FilterData content, materializing
  /// their results. Use when a subscription arrives after data: existing
  /// rules keep their state, only `new_rules` (children before parents)
  /// are evaluated from scratch, serially in that order (correct whatever
  /// shards they live in). Returns matches for the new rules.
  Result<FilterRunResult> EvaluateNewRules(
      const std::vector<int64_t>& new_rules);

 private:
  using MatchSet = std::unordered_set<std::string>;

  /// Fresh matches of the regular shards fed into the overflow pass:
  /// rule → uris, restricted to rules with a dependent in overflow.
  using ForeignSeeds = std::map<int64_t, std::vector<std::string>>;

  /// Delta atoms grouped by (class, property), then by value text, with
  /// subject pointers into the delta (which must outlive the grouping).
  /// The grouping is shard-independent, so Run builds it once and every
  /// shard pass probes from the same structure instead of re-grouping
  /// the delta per shard.
  using GroupedDelta =
      std::map<std::pair<std::string, std::string>,
               std::map<std::string, std::vector<const std::string*>>>;
  static GroupedDelta GroupDelta(const rdf::Statements& delta);

  /// One shard's two-phase filter pass (the whole algorithm when the
  /// store is unsharded). Appends matches/iterations/stats into `out`
  /// (delta_atoms is owned by Run). `foreign_seeds`, non-null only for
  /// the overflow shard, seeds the join agenda with the regular shards'
  /// fresh matches; seeded rules drive joins but are excluded from the
  /// output, the stats and re-materialization. `parent` is the
  /// enclosing filter.run span's context, passed explicitly because a
  /// pass may execute on a runner helper whose thread-local span stack is
  /// empty — without it the shard spans would detach from the trace.
  Status RunShard(int shard, const rdf::Statements& delta,
                  const GroupedDelta& grouped, const FilterOptions& options,
                  const ForeignSeeds* foreign_seeds, obs::SpanContext parent,
                  FilterRunResult* out);

  /// Initial iteration: delta atoms × `shard`'s triggering-rule base.
  /// Dispatches to the predicate-index or the table-scan path per
  /// `options`; `stats` receives the index_probes/index_hits/
  /// scan_fallbacks counters.
  Status MatchTriggeringRules(int shard, const rdf::Statements& delta,
                              const GroupedDelta& grouped,
                              const FilterOptions& options,
                              FilterRunStats* stats,
                              std::map<int64_t, MatchSet>* current) const;

  /// Index path: one predicate-index probe per distinct
  /// (class, property, value) group of the delta.
  Status MatchTriggeringRulesIndexed(int shard, const GroupedDelta& grouped,
                                     FilterRunStats* stats,
                                     std::map<int64_t, MatchSet>* current)
      const;

  /// Scan path (the seed access path): per atom, probe the FilterRules*
  /// tables and reconvert stored constants row by row (§3.3.4).
  Status MatchTriggeringRulesScan(int shard, const rdf::Statements& delta,
                                  FilterRunStats* stats,
                                  std::map<int64_t, MatchSet>* current) const;

  /// All materialized uris of `rule_id`, read from its owning shard.
  std::vector<std::string> MaterializedOf(int64_t rule_id) const;

  /// Values of one join side for resource `uri`: the uri itself when
  /// `property` is empty, else the FilterData values of that property.
  std::vector<std::string> SideValues(const std::string& uri,
                                      const std::string& property) const;

  /// Resources of `partner_class` whose `property` has value `value`
  /// (reverse FilterData lookup); `property` empty means `value` itself
  /// is the partner uri.
  std::vector<std::string> PartnersByValue(const std::string& value,
                                           const std::string& property,
                                           const std::string& partner_class)
      const;

  /// Appends to the MaterializedResults table of `rule_id`'s shard.
  Status AppendMaterialized(int64_t rule_id,
                            const std::vector<std::string>& uris);

  rdbms::Database* db_;
  RuleStore* store_;
  EngineOptions options_;
  std::unique_ptr<ForkJoinRunner> pool_;  // Set iff workers>1 && sharded.
};

}  // namespace mdv::filter

#endif  // MDV_FILTER_ENGINE_H_
