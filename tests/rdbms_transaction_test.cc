#include "rdbms/transaction.h"

#include <gtest/gtest.h>

#include "rdbms/database.h"
#include "rdbms/table.h"

namespace mdv::rdbms {
namespace {

TableSchema PeopleSchema() {
  return TableSchema("people", {ColumnDef{"name", ColumnType::kString},
                                ColumnDef{"age", ColumnType::kInt64}});
}

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest() {
    table_ = *db_.CreateTable(PeopleSchema());
    Status st = table_->CreateIndex("age", IndexKind::kBTree);
    EXPECT_TRUE(st.ok());
    ada_ = *table_->Insert(Row{Value("ada"), Value(int64_t{36})});
    bob_ = *table_->Insert(Row{Value("bob"), Value(int64_t{25})});
  }

  size_t CountByAge(int64_t age) {
    return table_
        ->SelectRowIds({ScanCondition{1, CompareOp::kEq, Value(age)}})
        .size();
  }

  Database db_;
  Table* table_ = nullptr;
  RowId ada_ = kInvalidRowId;
  RowId bob_ = kInvalidRowId;
};

TEST_F(TransactionTest, CommitKeepsChanges) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  ASSERT_TRUE(table_->Insert(Row{Value("carol"), Value(int64_t{30})}).ok());
  ASSERT_TRUE(table_->Delete(bob_).ok());
  ASSERT_TRUE(db_.CommitTransaction().ok());
  EXPECT_EQ(table_->NumRows(), 2u);
  EXPECT_EQ(table_->Get(bob_), nullptr);
  EXPECT_EQ(CountByAge(30), 1u);
}

TEST_F(TransactionTest, RollbackRestoresRowsAndIndexes) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  ASSERT_TRUE(table_->Insert(Row{Value("carol"), Value(int64_t{30})}).ok());
  ASSERT_TRUE(table_->Delete(bob_).ok());
  ASSERT_TRUE(table_->Update(ada_, Row{Value("ada"), Value(int64_t{37})})
                  .ok());
  ASSERT_TRUE(db_.RollbackTransaction().ok());

  EXPECT_EQ(table_->NumRows(), 2u);
  // Bob is back under his original id with his original content.
  ASSERT_NE(table_->Get(bob_), nullptr);
  EXPECT_EQ((*table_->Get(bob_))[0].as_string(), "bob");
  // Ada's update was undone — also in the index.
  EXPECT_EQ(CountByAge(36), 1u);
  EXPECT_EQ(CountByAge(37), 0u);
  EXPECT_EQ(CountByAge(30), 0u);
}

TEST_F(TransactionTest, RollbackUndoesTruncate) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  table_->Truncate();
  EXPECT_EQ(table_->NumRows(), 0u);
  ASSERT_TRUE(db_.RollbackTransaction().ok());
  EXPECT_EQ(table_->NumRows(), 2u);
  EXPECT_EQ(CountByAge(36), 1u);
}

TEST_F(TransactionTest, RollbackDropsTablesCreatedInTransaction) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  Result<Table*> created =
      db_.CreateTable(TableSchema("scratch", {ColumnDef{"x"}}));
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*created)->Insert(Row{Value("a")}).ok());
  ASSERT_TRUE(db_.RollbackTransaction().ok());
  EXPECT_FALSE(db_.HasTable("scratch"));
}

TEST_F(TransactionTest, CommitKeepsTablesCreatedInTransaction) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  ASSERT_TRUE(db_.CreateTable(TableSchema("scratch", {ColumnDef{"x"}})).ok());
  ASSERT_TRUE(db_.CommitTransaction().ok());
  EXPECT_TRUE(db_.HasTable("scratch"));
}

TEST_F(TransactionTest, DropTableRejectedInsideTransaction) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  EXPECT_EQ(db_.DropTable("people").code(), StatusCode::kUnsupported);
  ASSERT_TRUE(db_.RollbackTransaction().ok());
  EXPECT_TRUE(db_.DropTable("people").ok());
}

TEST_F(TransactionTest, StateMachineGuards) {
  EXPECT_FALSE(db_.InTransaction());
  EXPECT_EQ(db_.CommitTransaction().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.RollbackTransaction().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db_.BeginTransaction().ok());
  EXPECT_TRUE(db_.InTransaction());
  EXPECT_EQ(db_.BeginTransaction().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db_.CommitTransaction().ok());
  EXPECT_FALSE(db_.InTransaction());
  // Reusable after commit.
  ASSERT_TRUE(db_.BeginTransaction().ok());
  ASSERT_TRUE(db_.RollbackTransaction().ok());
}

TEST_F(TransactionTest, EmptyTransactionIsANoop) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  ASSERT_TRUE(db_.RollbackTransaction().ok());
  EXPECT_EQ(table_->NumRows(), 2u);
}

TEST_F(TransactionTest, UpdateAndDeleteWhereParticipate) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  EXPECT_EQ(table_->DeleteWhere(
                {ScanCondition{1, CompareOp::kLt, Value(int64_t{30})}}),
            1u);
  std::vector<RowId> adas =
      table_->SelectRowIds({ScanCondition{0, CompareOp::kEq, Value("ada")}});
  ASSERT_EQ(adas.size(), 1u);
  ASSERT_TRUE(
      table_->Update(adas[0], Row{Value("ada"), Value(int64_t{40})}).ok());
  EXPECT_EQ(table_->NumRows(), 1u);
  EXPECT_EQ(CountByAge(40), 1u);
  ASSERT_TRUE(db_.RollbackTransaction().ok());
  EXPECT_EQ(table_->NumRows(), 2u);
  EXPECT_EQ(CountByAge(36), 1u);
  EXPECT_EQ(CountByAge(25), 1u);
  EXPECT_EQ(CountByAge(40), 0u);
}

TEST_F(TransactionTest, SequentialTransactionsIndependent) {
  ASSERT_TRUE(db_.BeginTransaction().ok());
  ASSERT_TRUE(table_->Delete(ada_).ok());
  ASSERT_TRUE(db_.CommitTransaction().ok());
  ASSERT_TRUE(db_.BeginTransaction().ok());
  ASSERT_TRUE(table_->Delete(bob_).ok());
  ASSERT_TRUE(db_.RollbackTransaction().ok());
  // First transaction committed (ada gone), second rolled back (bob back).
  EXPECT_EQ(table_->Get(ada_), nullptr);
  EXPECT_NE(table_->Get(bob_), nullptr);
}

}  // namespace
}  // namespace mdv::rdbms
