#ifndef MDV_FILTER_TABLES_H_
#define MDV_FILTER_TABLES_H_

#include <string>

#include "common/status.h"
#include "rdbms/database.h"
#include "rdbms/predicate.h"

namespace mdv::filter {

/// Table names of the filter's relational representation (§3.3.4).
/// FilterData holds the document atoms (Figure 4); AtomicRules,
/// RuleDependencies and RuleGroups hold the decomposed rule base
/// (Figure 7); the FilterRules* family indexes triggering rules by the
/// operator of their where part (Figure 8; the paper shows
/// FilterRulesGT/FilterRulesCON — we materialize one table per operator
/// plus FilterRulesCLS for predicate-less triggering rules).
inline constexpr char kFilterData[] = "FilterData";
inline constexpr char kAtomicRules[] = "AtomicRules";
inline constexpr char kRuleDependencies[] = "RuleDependencies";
inline constexpr char kRuleGroups[] = "RuleGroups";
inline constexpr char kMaterializedResults[] = "MaterializedResults";
inline constexpr char kFilterRulesCLS[] = "FilterRulesCLS";
inline constexpr char kFilterRulesEQS[] = "FilterRulesEQS";  ///< = on strings.
inline constexpr char kFilterRulesEQN[] = "FilterRulesEQN";  ///< = on numbers.
inline constexpr char kFilterRulesNE[] = "FilterRulesNE";
inline constexpr char kFilterRulesLT[] = "FilterRulesLT";
inline constexpr char kFilterRulesLE[] = "FilterRulesLE";
inline constexpr char kFilterRulesGT[] = "FilterRulesGT";
inline constexpr char kFilterRulesGE[] = "FilterRulesGE";
inline constexpr char kFilterRulesCON[] = "FilterRulesCON";

/// Physical-design knobs (§3.3.4 stresses that the filter tables are
/// "created with indexes supporting an efficient access"). The ablation
/// bench toggles `create_indexes` off to quantify that claim.
struct TableOptions {
  bool create_indexes = true;
};

/// Number of table sets CreateFilterTables materializes for `num_shards`
/// regular shards: the shards themselves plus, when sharding is on, the
/// overflow shard (index == num_shards).
int TotalShardCount(int num_shards);

/// Physical name of `base`'s table in `shard`. Shard 0 keeps the legacy
/// unsuffixed name (so the single-shard layout is byte-identical to the
/// paper's), other shards append "@s<k>".
std::string ShardTableName(const std::string& base, int shard);

/// Creates all filter tables (with their indexes) in `db`. `num_shards`
/// (RuleStoreOptions::num_shards) partitions the per-rule tables
/// (FilterRules*, MaterializedResults) into that many shards plus one
/// overflow shard for rules whose triggering atoms span shards; 1 keeps
/// the single-table layout of the paper. Idempotent per database:
/// AlreadyExists if called twice.
Status CreateFilterTables(rdbms::Database* db,
                          const TableOptions& options = TableOptions{},
                          int num_shards = 1);

/// InvalidArgument unless `db` (e.g. a loaded snapshot) has the per-shard
/// tables of exactly `num_shards`: every one the layout reads, and none
/// of a further shard. Other tables are ignored.
Status CheckFilterTables(const rdbms::Database& db, int num_shards);

/// The FilterRules table that stores triggering rules using `op` with a
/// constant of the given kind (numeric matters only for equality).
std::string FilterRulesTableFor(rdbms::CompareOp op, bool constant_is_number);

/// All FilterRules* table names that hold operator predicates (i.e. all
/// but FilterRulesCLS).
const std::vector<std::string>& AllOperatorTables();

/// One operator table with its comparison semantics: `op` is the
/// comparison the table's rules apply, `numeric_only` whether the
/// comparison is defined only for numeric values (EQN and the ordered
/// operators; a non-numeric side never matches, §3.3.4).
struct OperatorTableInfo {
  const char* table;
  rdbms::CompareOp op;
  bool numeric_only;
};

/// Metadata for every operator table, in AllOperatorTables() order.
const std::vector<OperatorTableInfo>& OperatorTableInfos();

/// Column positions shared by the FilterData table.
struct FilterDataCols {
  static constexpr size_t kUri = 0;
  static constexpr size_t kClass = 1;
  static constexpr size_t kProperty = 2;
  static constexpr size_t kValue = 3;
};

/// Column positions shared by every FilterRules* table.
struct FilterRulesCols {
  static constexpr size_t kRuleId = 0;
  static constexpr size_t kClass = 1;
  static constexpr size_t kProperty = 2;  // Absent in FilterRulesCLS.
  static constexpr size_t kValue = 3;     // Absent in FilterRulesCLS.
};

/// Column positions of AtomicRules.
struct AtomicRulesCols {
  static constexpr size_t kRuleId = 0;
  static constexpr size_t kKind = 1;      // "T" or "J".
  static constexpr size_t kType = 2;      // Class the rule registers.
  static constexpr size_t kText = 3;      // Canonical rule text (unique
                                          // within a shard).
  static constexpr size_t kGroupId = 4;   // -1 for triggering rules.
  static constexpr size_t kRefcount = 5;
  static constexpr size_t kShard = 6;     // Shard owning the rule's
                                          // FilterRules*/Materialized rows.
};

/// Column positions of RuleDependencies (source feeds target).
struct RuleDependenciesCols {
  static constexpr size_t kSource = 0;
  static constexpr size_t kTarget = 1;
  static constexpr size_t kSide = 2;     // 0 = left input, 1 = right input.
  static constexpr size_t kGroupId = 3;  // Group of the target (denormalized
                                         // for efficiency, §3.3.4).
};

/// Column positions of RuleGroups.
struct RuleGroupsCols {
  static constexpr size_t kGroupId = 0;
  static constexpr size_t kKey = 1;
  static constexpr size_t kLeftClass = 2;
  static constexpr size_t kRightClass = 3;
  static constexpr size_t kLhsProperty = 4;
  static constexpr size_t kOp = 5;
  static constexpr size_t kRhsProperty = 6;
  static constexpr size_t kRegisterSide = 7;
  static constexpr size_t kMemberCount = 8;
};

/// Column positions of MaterializedResults.
struct ResultCols {
  static constexpr size_t kUri = 0;
  static constexpr size_t kRuleId = 1;
};

}  // namespace mdv::filter

#endif  // MDV_FILTER_TABLES_H_
