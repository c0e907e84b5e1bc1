#ifndef MDV_FILTER_RULE_STORE_H_
#define MDV_FILTER_RULE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "filter/predicate_index.h"
#include "rdbms/database.h"
#include "rdf/schema.h"
#include "rules/atomic_rule.h"
#include "rules/compiler.h"
#include "rules/lint.h"

namespace mdv::filter {

/// Behavioural knobs of the rule store, exposed for the ablation
/// benchmarks (DESIGN.md):
///  - `merge_shared_atoms` implements §3.3.2's duplicate elimination when
///    merging dependency trees; off, every subscription gets private
///    copies of its atomic rules.
///  - `use_rule_groups` implements §3.3.3; off, every join rule gets a
///    singleton group, so grouped evaluation degenerates to per-rule
///    evaluation.
///  - `num_shards` partitions the rule base by the (class, property)
///    affinity of each rule's triggering atoms: a whole dependency tree
///    is routed to `fingerprint(sorted triggering texts) % num_shards`,
///    each shard owning its own FilterRules*/MaterializedResults tables
///    and PredicateIndex, so the engine can fan a publish out across
///    shards. Rules whose atoms span shards (they extend subscription
///    rules already placed in two different shards) go to the overflow
///    shard, evaluated last. Must match the shard count the database's
///    filter tables were created with (CreateFilterTables); 1 keeps the
///    paper's monolithic layout.
struct RuleStoreOptions {
  bool merge_shared_atoms = true;
  bool use_rule_groups = true;
  int num_shards = 1;
};

/// Persistent representation of the global dependency graph (§3.3.2) in
/// the filter tables: AtomicRules, RuleDependencies, RuleGroups, plus the
/// FilterRules* index tables for triggering rules. Atomic rules are
/// reference-counted: a rule's count is the number of join rules that
/// consume it plus the number of subscriptions whose end rule it is;
/// unregistering cascades deletion of orphaned subtrees.
class RuleStore {
 public:
  /// `db` must already contain the filter tables (CreateFilterTables).
  explicit RuleStore(rdbms::Database* db,
                     RuleStoreOptions options = RuleStoreOptions{});

  RuleStore(const RuleStore&) = delete;
  RuleStore& operator=(const RuleStore&) = delete;

  /// Merges the dependency tree of one decomposed subscription rule into
  /// the global dependency graph, reusing existing atomic rules with the
  /// same canonical text. Returns the global id of the end rule and
  /// takes one subscription reference on it. If `created` is non-null it
  /// receives the ids of atomic rules that did not exist before, in
  /// topological order (children before parents) — the filter engine
  /// evaluates exactly these against the existing data to seed a new
  /// subscription.
  Result<int64_t> RegisterTree(const rules::DecomposedRule& tree,
                               std::vector<int64_t>* created = nullptr);

  /// Result of AddRule: the registered end rule plus the lint warnings
  /// the rule drew against the live rule base (duplicates, subsumption).
  struct AddRuleOutcome {
    int64_t end_rule_id = -1;
    /// Atomic rules that did not exist before, children before parents
    /// (see RegisterTree).
    std::vector<int64_t> created;
    std::vector<rules::LintDiagnostic> warnings;
  };

  /// Lints `compiled` and registers its dependency tree. Unsatisfiable
  /// rules are refused with InvalidArgument (counted in
  /// `mdv.lint.rejected_total`) — the paper's filter would evaluate them
  /// against every publication without ever firing. Rules that duplicate
  /// or are subsumed by an already-registered rule are accepted but
  /// reported in `warnings` and counted in `mdv.lint.duplicate_total` /
  /// `mdv.lint.subsumed_total`. `name` labels the rule in diagnostics
  /// (subscription name; may be empty).
  Result<AddRuleOutcome> AddRule(const rules::CompiledRule& compiled,
                                 const rdf::RdfSchema& schema,
                                 const std::string& name = "");

  /// Releases one subscription reference on `end_rule_id`; atomic rules
  /// whose reference count drops to zero are removed (cascading to the
  /// rules they depend on), together with their FilterRules rows, group
  /// membership, dependency edges and materialized results.
  Status Unregister(int64_t end_rule_id);

  // ---- Queries used by the filter engine. -----------------------------

  /// A dependency edge: `source` feeds input `side` of join rule
  /// `target`, which belongs to rule group `group_id`.
  ///
  /// The engine-facing queries below (DependentsOf, InputsOf,
  /// GroupSpecOf, HasDependents, RuleTypeOf) answer from write-through
  /// in-memory caches mirroring the RuleDependencies/RuleGroups/
  /// AtomicRules tables: the constructor rebuilds them from a reopened
  /// database, every registration/unregistration updates them in the
  /// same call, and CheckConsistency audits them against the tables.
  /// Publish fan-out thus never touches the shared tables for graph
  /// topology — the per-rule selects used to dominate the run and
  /// serialize parallel shard passes on the table internals.
  struct Dependent {
    int64_t target = -1;
    int side = 0;
    int64_t group_id = -1;
  };
  const std::vector<Dependent>& DependentsOf(int64_t source_rule_id) const;

  /// The two inputs of a join rule (left, right). A self-join has
  /// left == right.
  struct JoinInputs {
    int64_t left = -1;
    int64_t right = -1;
  };
  Result<JoinInputs> InputsOf(int64_t join_rule_id) const;

  /// The shared evaluation spec of a rule group.
  struct GroupSpec {
    int64_t group_id = -1;
    std::string left_class;
    std::string right_class;
    std::string lhs_property;  ///< Empty = the resource itself.
    rdbms::CompareOp op = rdbms::CompareOp::kEq;
    std::string rhs_property;
    int register_side = 0;
  };
  Result<GroupSpec> GroupSpecOf(int64_t group_id) const;

  /// Class of the resources `rule_id` registers.
  Result<std::string> RuleTypeOf(int64_t rule_id) const;

  /// True if some join rule consumes `rule_id` (its results must then be
  /// materialized, §3.4).
  bool HasDependents(int64_t rule_id) const;

  size_t NumAtomicRules() const;
  size_t NumGroups() const;

  // ---- Sharding. ------------------------------------------------------

  /// Number of regular shards (RuleStoreOptions::num_shards).
  int num_shards() const { return options_.num_shards; }
  /// Regular shards plus, when sharding is on, the overflow shard.
  int total_shards() const { return static_cast<int>(indexes_.size()); }
  /// Index of the overflow shard (== num_shards(); only meaningful when
  /// num_shards() > 1).
  int overflow_shard() const { return options_.num_shards; }
  /// Shard owning `rule_id`'s FilterRules*/MaterializedResults rows; 0
  /// for unknown rules (and always 0 when sharding is off).
  int ShardOf(int64_t rule_id) const;
  /// Number of atomic rules living in `shard`.
  int64_t ShardRuleCount(int shard) const;

  /// The in-memory predicate index over shard 0's triggering-rule base
  /// (the whole rule base when sharding is off), used by the filter
  /// engine's initial iteration. Maintained write-through: every
  /// mutation of the FilterRules* tables (registration and cascading
  /// unregistration) updates it in the same call, and the constructor
  /// rebuilds it from the tables of a reopened database.
  const PredicateIndex& predicate_index() const { return *indexes_[0]; }

  /// The predicate index of one shard.
  const PredicateIndex& predicate_index(int shard) const {
    return *indexes_[static_cast<size_t>(shard)];
  }

  /// Invariant auditor: verifies every shard's in-memory predicate index
  /// against its FilterRules* tables (see
  /// PredicateIndex::CheckConsistency), and cross-shard placement —
  /// every registered atomic rule lives in exactly one shard (its
  /// AtomicRules shard column is in range and agrees with the in-memory
  /// routing map, and per-shard rule counts add up). Internal on
  /// violation; used by tests and by the filter engine under the
  /// MDV_AUDIT_INVARIANTS debug flag.
  Status CheckConsistency() const;

  const RuleStoreOptions& options() const { return options_; }

 private:
  Result<int64_t> MergeNode(const rules::DecomposedRule& tree, int node_index,
                            int shard, std::vector<int64_t>* id_of_node,
                            std::vector<int64_t>* created);
  Result<int64_t> GetOrCreateGroup(const rules::JoinSpec& spec,
                                   int64_t owner_rule_id);
  std::optional<int64_t> LookupByText(const std::string& text,
                                      int shard) const;
  Status AdjustRefcount(int64_t rule_id, int64_t delta);
  Status RemoveRule(int64_t rule_id);
  Status InsertTriggeringRow(int64_t rule_id, int shard,
                             const rules::TriggeringSpec& spec);
  /// Target shard of a whole dependency tree (see RuleStoreOptions).
  int ShardOfTree(const rules::DecomposedRule& tree) const;
  void RecordShard(int64_t rule_id, int shard);

  /// Cache maintenance around the RuleDependencies table (write-through
  /// halves of DependentsOf/InputsOf).
  void RecordEdge(int64_t source, int64_t target, int side, int64_t group_id);
  void ForgetEdgesInto(int64_t target);

  rdbms::Database* db_;
  RuleStoreOptions options_;
  /// One predicate index per shard (index total_shards()-1 = overflow).
  std::vector<std::unique_ptr<PredicateIndex>> indexes_;
  /// rule_id → owning shard; mirrors the AtomicRules shard column.
  std::unordered_map<int64_t, int> shard_of_;
  /// source rule → outgoing dependency edges; mirrors RuleDependencies.
  std::unordered_map<int64_t, std::vector<Dependent>> dependents_of_;
  /// join rule → its two inputs; mirrors RuleDependencies by target.
  std::unordered_map<int64_t, JoinInputs> inputs_of_;
  /// group id → evaluation spec; mirrors RuleGroups (sans member count).
  std::unordered_map<int64_t, GroupSpec> group_spec_of_;
  /// rule id → registered class; mirrors the AtomicRules type column.
  std::unordered_map<int64_t, std::string> type_of_;
  /// Atomic rules per shard; mirrors the AtomicRules table.
  std::vector<int64_t> shard_rule_count_;
  int64_t next_rule_id_ = 1;
  int64_t next_group_id_ = 1;

  /// Analyzed form of rules registered through AddRule, kept for the
  /// duplicate/subsumption lint against later additions. One entry per
  /// AddRule call; Unregister drops one entry of the matching end rule.
  struct LintedRule {
    int64_t end_rule_id = -1;
    std::string name;
    rules::AnalyzedRule analyzed;
  };
  std::vector<LintedRule> linted_rules_;
};

}  // namespace mdv::filter

#endif  // MDV_FILTER_RULE_STORE_H_
