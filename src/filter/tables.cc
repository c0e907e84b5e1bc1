#include "filter/tables.h"

#include <vector>

#include "rdbms/schema.h"

namespace mdv::filter {

namespace {

using rdbms::ColumnDef;
using rdbms::ColumnType;
using rdbms::Database;
using rdbms::IndexKind;
using rdbms::Table;
using rdbms::TableSchema;

Status CreateTableWithIndexes(
    Database* db, TableSchema schema,
    const std::vector<std::pair<std::string, IndexKind>>& indexes,
    bool create_indexes) {
  MDV_ASSIGN_OR_RETURN(Table * table, db->CreateTable(std::move(schema)));
  if (create_indexes) {
    for (const auto& [column, kind] : indexes) {
      MDV_RETURN_IF_ERROR(table->CreateIndex(column, kind));
    }
  }
  return Status::OK();
}

TableSchema RulesTableSchema(const std::string& name) {
  return TableSchema(name, {ColumnDef{"rule_id", ColumnType::kInt64},
                            ColumnDef{"class", ColumnType::kString},
                            ColumnDef{"property", ColumnType::kString},
                            ColumnDef{"value", ColumnType::kString}});
}

}  // namespace

int TotalShardCount(int num_shards) {
  return num_shards > 1 ? num_shards + 1 : 1;
}

std::string ShardTableName(const std::string& base, int shard) {
  if (shard == 0) return base;
  return base + "@s" + std::to_string(shard);
}

Status CreateFilterTables(rdbms::Database* db, const TableOptions& options,
                          int num_shards) {
  const bool ix = options.create_indexes;
  const int total_shards = TotalShardCount(num_shards);

  // Document atoms (Figure 4). The uri index supports purging a
  // resource's atoms and resolving property values during join
  // evaluation; the value index supports reverse lookups (value → uris)
  // when join rules probe the non-delta side.
  MDV_RETURN_IF_ERROR(CreateTableWithIndexes(
      db,
      TableSchema(kFilterData, {ColumnDef{"uri_reference", ColumnType::kString},
                                ColumnDef{"class", ColumnType::kString},
                                ColumnDef{"property", ColumnType::kString},
                                ColumnDef{"value", ColumnType::kString}}),
      {{"uri_reference", IndexKind::kHash},
       {"value", IndexKind::kHash},
       {"property", IndexKind::kHash}},
      ix));

  // Decomposed rule base (Figure 7). The text index implements duplicate
  // elimination when merging dependency trees (§3.3.2).
  MDV_RETURN_IF_ERROR(CreateTableWithIndexes(
      db,
      TableSchema(kAtomicRules, {ColumnDef{"rule_id", ColumnType::kInt64},
                                 ColumnDef{"kind", ColumnType::kString},
                                 ColumnDef{"type", ColumnType::kString},
                                 ColumnDef{"text", ColumnType::kString},
                                 ColumnDef{"group_id", ColumnType::kInt64},
                                 ColumnDef{"refcount", ColumnType::kInt64},
                                 ColumnDef{"shard", ColumnType::kInt64}}),
      {{"rule_id", IndexKind::kHash}, {"text", IndexKind::kHash}}, ix));

  MDV_RETURN_IF_ERROR(CreateTableWithIndexes(
      db,
      TableSchema(kRuleDependencies,
                  {ColumnDef{"source", ColumnType::kInt64},
                   ColumnDef{"target", ColumnType::kInt64},
                   ColumnDef{"side", ColumnType::kInt64},
                   ColumnDef{"group_id", ColumnType::kInt64}}),
      {{"source", IndexKind::kHash}, {"target", IndexKind::kHash}}, ix));

  MDV_RETURN_IF_ERROR(CreateTableWithIndexes(
      db,
      TableSchema(kRuleGroups,
                  {ColumnDef{"group_id", ColumnType::kInt64},
                   ColumnDef{"key", ColumnType::kString},
                   ColumnDef{"left_class", ColumnType::kString},
                   ColumnDef{"right_class", ColumnType::kString},
                   ColumnDef{"lhs_property", ColumnType::kString},
                   ColumnDef{"op", ColumnType::kString},
                   ColumnDef{"rhs_property", ColumnType::kString},
                   ColumnDef{"register_side", ColumnType::kInt64},
                   ColumnDef{"member_count", ColumnType::kInt64}}),
      {{"group_id", IndexKind::kHash}, {"key", IndexKind::kHash}}, ix));

  // Per-rule tables are materialized once per shard (shard 0 keeps the
  // legacy unsuffixed names). The rule-base tables above stay global:
  // the dependency graph and groups span shards.
  for (int shard = 0; shard < total_shards; ++shard) {
    // The materialized results of atomic rules that join rules depend on
    // (§3.4).
    MDV_RETURN_IF_ERROR(CreateTableWithIndexes(
        db,
        TableSchema(ShardTableName(kMaterializedResults, shard),
                    {ColumnDef{"uri_reference", ColumnType::kString},
                     ColumnDef{"rule_id", ColumnType::kInt64}}),
        {{"uri_reference", IndexKind::kHash}, {"rule_id", IndexKind::kHash}},
        ix));

    // Triggering rules without a predicate: matched purely by class. The
    // rule_id index supports unregistration and initial evaluation of new
    // subscriptions.
    MDV_RETURN_IF_ERROR(CreateTableWithIndexes(
        db,
        TableSchema(ShardTableName(kFilterRulesCLS, shard),
                    {ColumnDef{"rule_id", ColumnType::kInt64},
                     ColumnDef{"class", ColumnType::kString}}),
        {{"class", IndexKind::kHash}, {"rule_id", IndexKind::kHash}}, ix));

    // Triggering rules with an operator predicate, one table per operator
    // (Figure 8). Values are stored as strings and reconverted (§3.3.4).
    // String-equality rules index the value column so that a delta atom
    // finds its rules with one point lookup (this is what makes OID rules
    // independent of the rule base size, Figure 11); the ordered-operator
    // tables are probed by property.
    for (const std::string& name : AllOperatorTables()) {
      std::vector<std::pair<std::string, IndexKind>> indexes;
      if (name == kFilterRulesEQS) {
        indexes = {{"value", IndexKind::kHash}};
      } else {
        indexes = {{"property", IndexKind::kHash}};
      }
      indexes.emplace_back("rule_id", IndexKind::kHash);
      MDV_RETURN_IF_ERROR(CreateTableWithIndexes(
          db, RulesTableSchema(ShardTableName(name, shard)), indexes, ix));
    }
  }
  return Status::OK();
}

Status CheckFilterTables(const rdbms::Database& db, int num_shards) {
  const int total_shards = TotalShardCount(num_shards);
  std::vector<std::string> bases = AllOperatorTables();
  bases.push_back(kMaterializedResults);
  bases.push_back(kFilterRulesCLS);
  for (int shard = 0; shard <= total_shards; ++shard) {
    for (const std::string& base : bases) {
      const std::string name = ShardTableName(base, shard);
      const bool present = db.GetTable(name) != nullptr;
      if (present != (shard < total_shards)) {
        return Status::InvalidArgument(
            "filter table " + name + (present ? " present" : " missing") +
            ": not a num_shards=" + std::to_string(num_shards) + " layout");
      }
    }
  }
  return Status::OK();
}

std::string FilterRulesTableFor(rdbms::CompareOp op, bool constant_is_number) {
  switch (op) {
    case rdbms::CompareOp::kEq:
      return constant_is_number ? kFilterRulesEQN : kFilterRulesEQS;
    case rdbms::CompareOp::kNe:
      return kFilterRulesNE;
    case rdbms::CompareOp::kLt:
      return kFilterRulesLT;
    case rdbms::CompareOp::kLe:
      return kFilterRulesLE;
    case rdbms::CompareOp::kGt:
      return kFilterRulesGT;
    case rdbms::CompareOp::kGe:
      return kFilterRulesGE;
    case rdbms::CompareOp::kContains:
      return kFilterRulesCON;
  }
  return kFilterRulesEQS;
}

const std::vector<std::string>& AllOperatorTables() {
  static const std::vector<std::string>& tables =
      *new std::vector<std::string>{kFilterRulesEQS, kFilterRulesEQN,
                                    kFilterRulesNE,  kFilterRulesLT,
                                    kFilterRulesLE,  kFilterRulesGT,
                                    kFilterRulesGE,  kFilterRulesCON};
  return tables;
}

const std::vector<OperatorTableInfo>& OperatorTableInfos() {
  using rdbms::CompareOp;
  static const std::vector<OperatorTableInfo>& infos =
      *new std::vector<OperatorTableInfo>{
          {kFilterRulesEQS, CompareOp::kEq, false},
          {kFilterRulesEQN, CompareOp::kEq, true},
          {kFilterRulesNE, CompareOp::kNe, false},
          {kFilterRulesLT, CompareOp::kLt, true},
          {kFilterRulesLE, CompareOp::kLe, true},
          {kFilterRulesGT, CompareOp::kGt, true},
          {kFilterRulesGE, CompareOp::kGe, true},
          {kFilterRulesCON, CompareOp::kContains, false}};
  return infos;
}

}  // namespace mdv::filter
