#include "rdbms/table.h"

#include <gtest/gtest.h>

#include "rdbms/database.h"

namespace mdv::rdbms {
namespace {

TableSchema PeopleSchema() {
  return TableSchema("people", {ColumnDef{"name", ColumnType::kString},
                                ColumnDef{"age", ColumnType::kInt64}});
}

Row MakePerson(const std::string& name, int64_t age) {
  return Row{Value(name), Value(age)};
}

TEST(TableTest, InsertGetDelete) {
  Table table(PeopleSchema());
  Result<RowId> id = table.Insert(MakePerson("ada", 36));
  ASSERT_TRUE(id.ok());
  ASSERT_NE(table.Get(*id), nullptr);
  EXPECT_EQ((*table.Get(*id))[0].as_string(), "ada");
  EXPECT_EQ(table.NumRows(), 1u);
  EXPECT_TRUE(table.Delete(*id).ok());
  EXPECT_EQ(table.Get(*id), nullptr);
  EXPECT_FALSE(table.Delete(*id).ok());
}

TEST(TableTest, InsertValidatesArityAndTypes) {
  Table table(PeopleSchema());
  EXPECT_FALSE(table.Insert(Row{Value("ada")}).ok());
  EXPECT_FALSE(table.Insert(Row{Value("ada"), Value("not a number")}).ok());
  EXPECT_TRUE(table.Insert(Row{Value("ada"), Value()}).ok());  // NULL ok.
}

TEST(TableTest, UpdateKeepsIndexesInSync) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("age", IndexKind::kBTree).ok());
  RowId id = *table.Insert(MakePerson("ada", 36));
  ASSERT_TRUE(table.Update(id, MakePerson("ada", 37)).ok());
  EXPECT_TRUE(table
                  .SelectRowIds({ScanCondition{1, CompareOp::kEq,
                                               Value(int64_t{36})}})
                  .empty());
  EXPECT_EQ(table
                .SelectRowIds(
                    {ScanCondition{1, CompareOp::kEq, Value(int64_t{37})}})
                .size(),
            1u);
}

TEST(TableTest, IndexBackfillsExistingRows) {
  Table table(PeopleSchema());
  RowId ada = *table.Insert(MakePerson("ada", 36));
  RowId bob = *table.Insert(MakePerson("bob", 25));
  ASSERT_TRUE(table.CreateIndex("name", IndexKind::kHash).ok());
  std::vector<RowId> hits =
      table.SelectRowIds({ScanCondition{0, CompareOp::kEq, Value("bob")}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], bob);
  (void)ada;
  EXPECT_EQ(table.stats().index_lookups, 1);
  EXPECT_EQ(table.stats().full_scans, 0);
}

TEST(TableTest, DuplicateIndexRejected) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("name", IndexKind::kHash).ok());
  EXPECT_EQ(table.CreateIndex("name", IndexKind::kBTree).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table.CreateIndex("nope", IndexKind::kHash).code(),
            StatusCode::kNotFound);
}

TEST(TableTest, BTreeRangeScan) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("age", IndexKind::kBTree).ok());
  for (int64_t age = 10; age <= 50; age += 10) {
    ASSERT_TRUE(table.Insert(MakePerson("p" + std::to_string(age), age)).ok());
  }
  EXPECT_EQ(table
                .SelectRowIds(
                    {ScanCondition{1, CompareOp::kGt, Value(int64_t{20})}})
                .size(),
            3u);
  EXPECT_EQ(table
                .SelectRowIds(
                    {ScanCondition{1, CompareOp::kGe, Value(int64_t{20})}})
                .size(),
            4u);
  EXPECT_EQ(table
                .SelectRowIds(
                    {ScanCondition{1, CompareOp::kLe, Value(int64_t{20})}})
                .size(),
            2u);
  EXPECT_EQ(table.stats().full_scans, 0);
}

TEST(TableTest, FullScanFallbackWithoutIndex) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.Insert(MakePerson("ada", 36)).ok());
  ASSERT_TRUE(table.Insert(MakePerson("bob", 25)).ok());
  std::vector<RowId> hits =
      table.SelectRowIds({ScanCondition{0, CompareOp::kEq, Value("ada")}});
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_EQ(table.stats().full_scans, 1);
}

TEST(TableTest, MultiConditionUsesOneIndexAndFilters) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("age", IndexKind::kBTree).ok());
  ASSERT_TRUE(table.Insert(MakePerson("ada", 36)).ok());
  ASSERT_TRUE(table.Insert(MakePerson("bob", 36)).ok());
  std::vector<RowId> hits = table.SelectRowIds(
      {ScanCondition{1, CompareOp::kEq, Value(int64_t{36})},
       ScanCondition{0, CompareOp::kEq, Value("bob")}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ((*table.Get(hits[0]))[0].as_string(), "bob");
}

TEST(TableTest, DeleteWhereRemovesMatching) {
  Table table(PeopleSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert(MakePerson("p" + std::to_string(i), i % 2)).ok());
  }
  EXPECT_EQ(table.DeleteWhere(
                {ScanCondition{1, CompareOp::kEq, Value(int64_t{1})}}),
            5u);
  EXPECT_EQ(table.NumRows(), 5u);
}

TEST(TableTest, TruncateKeepsIndexDefinitions) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("age", IndexKind::kBTree).ok());
  ASSERT_TRUE(table.Insert(MakePerson("ada", 36)).ok());
  table.Truncate();
  EXPECT_EQ(table.NumRows(), 0u);
  ASSERT_TRUE(table.Insert(MakePerson("bob", 25)).ok());
  EXPECT_EQ(table
                .SelectRowIds(
                    {ScanCondition{1, CompareOp::kEq, Value(int64_t{25})}})
                .size(),
            1u);
  EXPECT_TRUE(table.HasIndex(1));
}

TEST(TableTest, InsertRowsAppendsAll) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("age", IndexKind::kBTree).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 5; ++i) rows.push_back(MakePerson("p", i));
  ASSERT_TRUE(table.InsertRows(std::move(rows)).ok());
  EXPECT_EQ(table.NumRows(), 5u);
  EXPECT_EQ(table
                .SelectRowIds(
                    {ScanCondition{1, CompareOp::kEq, Value(int64_t{3})}})
                .size(),
            1u);
}

TEST(TableTest, InsertRowsIsAllOrNothing) {
  Table table(PeopleSchema());
  std::vector<Row> rows{MakePerson("ok", 1),
                        Row{Value("bad"), Value("not a number")}};
  EXPECT_FALSE(table.InsertRows(std::move(rows)).ok());
  EXPECT_EQ(table.NumRows(), 0u);  // The valid row was not inserted either.
}

TEST(TableTest, CombinedRangeBoundsUseOneIndexProbe) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("age", IndexKind::kBTree).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.Insert(MakePerson("p" + std::to_string(i), i)).ok());
  }
  int64_t lookups_before = table.stats().index_lookups;
  // 5 <= age < 9, both bounds on the same B-tree column: one range probe.
  std::vector<RowId> hits = table.SelectRowIds(
      {ScanCondition{1, CompareOp::kGe, Value(int64_t{5})},
       ScanCondition{1, CompareOp::kLt, Value(int64_t{9})}});
  EXPECT_EQ(hits.size(), 4u);
  EXPECT_EQ(table.stats().index_lookups, lookups_before + 1);
  // Contradictory bounds short-circuit to an empty result.
  EXPECT_TRUE(table
                  .SelectRowIds(
                      {ScanCondition{1, CompareOp::kGt, Value(int64_t{9})},
                       ScanCondition{1, CompareOp::kLt, Value(int64_t{5})}})
                  .empty());
}

TEST(DatabaseTest, CatalogLifecycle) {
  Database db;
  Result<Table*> created = db.CreateTable(PeopleSchema());
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(db.HasTable("people"));
  EXPECT_EQ(db.CreateTable(PeopleSchema()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.GetTable("people"), *created);
  EXPECT_EQ(db.GetTable("nope"), nullptr);
  EXPECT_TRUE(db.DropTable("people").ok());
  EXPECT_FALSE(db.DropTable("people").ok());
}

TEST(DatabaseTest, TotalRowsAndNames) {
  Database db;
  Table* people = *db.CreateTable(PeopleSchema());
  ASSERT_TRUE(people->Insert(MakePerson("ada", 1)).ok());
  ASSERT_TRUE(
      db.CreateTable(TableSchema("empty", {ColumnDef{"x"}})).ok());
  EXPECT_EQ(db.TotalRows(), 1u);
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"empty", "people"}));
}

// ---- Invariant auditor. ---------------------------------------------------

TEST(TableInvariantsTest, HoldAfterMutationWorkout) {
  Table table(PeopleSchema());
  ASSERT_TRUE(table.CreateIndex("name", IndexKind::kHash).ok());
  ASSERT_TRUE(table.CreateIndex("age", IndexKind::kBTree).ok());
  EXPECT_TRUE(table.CheckInvariants().ok());

  std::vector<RowId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(*table.Insert(MakePerson("p" + std::to_string(i % 7),
                                           100 - i)));
  }
  EXPECT_TRUE(table.CheckInvariants().ok());
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(table.Delete(ids[i]).ok());
  }
  for (size_t i = 1; i < ids.size(); i += 3) {
    ASSERT_TRUE(table.Update(ids[i], MakePerson("updated", 1000 + i)).ok());
  }
  Status st = table.CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();

  // Index created after the fact is back-filled consistently.
  Table backfilled(PeopleSchema());
  table.Scan([&](RowId, const Row& row) {
    ASSERT_TRUE(backfilled.Insert(row).ok());
  });
  ASSERT_TRUE(backfilled.CreateIndex("age", IndexKind::kHash).ok());
  EXPECT_TRUE(backfilled.CheckInvariants().ok());
  EXPECT_EQ(backfilled.NumRows(), table.NumRows());
  table.Truncate();
  EXPECT_TRUE(table.CheckInvariants().ok());
}

TEST(TableInvariantsTest, HoldAcrossTransactionRollback) {
  Database db;
  Table* people = *db.CreateTable(PeopleSchema());
  ASSERT_TRUE(people->CreateIndex("age", IndexKind::kBTree).ok());
  RowId keep = *people->Insert(MakePerson("ada", 36));
  ASSERT_TRUE(db.BeginTransaction().ok());
  ASSERT_TRUE(people->Insert(MakePerson("grace", 45)).ok());
  ASSERT_TRUE(people->Delete(keep).ok());
  ASSERT_TRUE(db.RollbackTransaction().ok());
  Status st = db.CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(people->NumRows(), 1u);
}

TEST(TableInvariantsTest, BTreeForEachEntryVisitsInKeyOrder) {
  // The auditor's ordering check leans on this visit order.
  BTreeIndex index(0);
  index.Insert(Value(int64_t{5}), 1);
  index.Insert(Value(int64_t{1}), 2);
  index.Insert(Value(int64_t{3}), 3);
  std::vector<int64_t> keys;
  index.ForEachEntry(
      [&](const Value& key, RowId) { keys.push_back(key.as_int()); });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3, 5}));
}

}  // namespace
}  // namespace mdv::rdbms
