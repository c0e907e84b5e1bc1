#include "rdbms/persistence.h"

#include <gtest/gtest.h>

#include <sstream>

#include "bench_support/workload.h"
#include "filter/data_store.h"
#include "filter/engine.h"
#include "filter/rule_store.h"
#include "rdbms/table.h"

namespace mdv::rdbms {
namespace {

TEST(PersistenceTest, RoundTripsSchemasIndexesAndRows) {
  Database db;
  Table* t = *db.CreateTable(TableSchema(
      "people", {ColumnDef{"name", ColumnType::kString},
                 ColumnDef{"age", ColumnType::kInt64},
                 ColumnDef{"score", ColumnType::kDouble}}));
  ASSERT_TRUE(t->CreateIndex("age", IndexKind::kBTree).ok());
  ASSERT_TRUE(
      t->Insert(Row{Value("ada"), Value(int64_t{36}), Value(0.25)}).ok());
  ASSERT_TRUE(t->Insert(Row{Value("bob line\nwith\ttabs and spaces"),
                            Value(int64_t{-7}), Value()})
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("empty", {ColumnDef{"x"}})).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveDatabase(db, stream).ok());
  Result<std::unique_ptr<Database>> loaded = LoadDatabase(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  Table* reloaded = (*loaded)->GetTable("people");
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->NumRows(), 2u);
  EXPECT_TRUE((*loaded)->HasTable("empty"));

  // The index survived and is used.
  std::vector<RowId> hits = reloaded->SelectRowIds(
      {ScanCondition{1, CompareOp::kEq, Value(int64_t{36})}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ((*reloaded->Get(hits[0]))[0].as_string(), "ada");
  EXPECT_EQ(reloaded->stats().index_lookups, 1);

  // Strings with escapes and NULLs round-trip.
  hits = reloaded->SelectRowIds(
      {ScanCondition{1, CompareOp::kEq, Value(int64_t{-7})}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ((*reloaded->Get(hits[0]))[0].as_string(),
            "bob line\nwith\ttabs and spaces");
  EXPECT_TRUE((*reloaded->Get(hits[0]))[2].is_null());
}

TEST(PersistenceTest, FileRoundTrip) {
  Database db;
  Table* t = *db.CreateTable(
      TableSchema("t", {ColumnDef{"v", ColumnType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->Insert(Row{Value(i)}).ok());
  }
  const std::string path = ::testing::TempDir() + "/mdv_persistence_test.db";
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->GetTable("t")->NumRows(), 100u);
}

TEST(PersistenceTest, LoadErrors) {
  std::stringstream empty;
  EXPECT_EQ(LoadDatabase(empty).status().code(), StatusCode::kParseError);
  std::stringstream bad_header("NOPE\nEND\n");
  EXPECT_EQ(LoadDatabase(bad_header).status().code(),
            StatusCode::kParseError);
  std::stringstream truncated("MDVDB1\nTABLE t 1 2\nCOL x STRING 1\nV S a\n");
  EXPECT_EQ(LoadDatabase(truncated).status().code(),
            StatusCode::kParseError);
  std::stringstream garbage("MDVDB1\nWHAT\nEND\n");
  EXPECT_EQ(LoadDatabase(garbage).status().code(), StatusCode::kParseError);
  EXPECT_EQ(LoadDatabaseFromFile("/nonexistent/x.db").status().code(),
            StatusCode::kNotFound);
}

// Mangled-snapshot corpus: every prefix truncation and a set of token
// corruptions of a valid image must come back as a Status — never a
// crash, never an unchecked huge allocation.
TEST(PersistenceTest, MangledSnapshotCorpusNeverCrashes) {
  Database db;
  Table* t = *db.CreateTable(TableSchema(
      "people", {ColumnDef{"name", ColumnType::kString},
                 ColumnDef{"age", ColumnType::kInt64},
                 ColumnDef{"score", ColumnType::kDouble}}));
  ASSERT_TRUE(t->CreateIndex("age", IndexKind::kBTree).ok());
  ASSERT_TRUE(
      t->Insert(Row{Value("ada"), Value(int64_t{36}), Value(0.25)}).ok());
  ASSERT_TRUE(
      t->Insert(Row{Value("esc\n\t chars"), Value(int64_t{-7}), Value()})
          .ok());
  std::stringstream saved;
  ASSERT_TRUE(SaveDatabase(db, saved).ok());
  const std::string image = saved.str();

  // Torn writes: cut the image at every byte boundary.
  for (size_t cut = 0; cut < image.size(); ++cut) {
    std::stringstream mangled(image.substr(0, cut));
    Result<std::unique_ptr<Database>> loaded = LoadDatabase(mangled);
    if (loaded.ok()) {
      // A cut exactly after a complete END line may still parse; it
      // must then be a coherent database, not a half-read one.
      EXPECT_TRUE((*loaded)->CheckInvariants().ok()) << "cut at " << cut;
    }
  }

  // Token corruptions. Each entry mangles one structural element.
  const struct {
    const char* name;
    std::string from;
    std::string to;
  } kCorruptions[] = {
      {"negative column count", "TABLE people 3 2", "TABLE people -3 2"},
      {"negative row count", "TABLE people 3 2", "TABLE people 3 -2"},
      {"huge row count", "TABLE people 3 2", "TABLE people 3 99999999999"},
      {"huge column count", "TABLE people 3 2",
       "TABLE people 4294967295 2"},
      {"missing END", "END\n", ""},
      {"unknown value tag", "V I 36", "V Q 36"},
      {"non-numeric int", "V I 36", "V I thirtysix"},
      {"row arity break", "V I 36\n", ""},
      {"column type garbage", "INT64", "INT63"},
      {"index on unknown column", "INDEX age BTREE", "INDEX ghost BTREE"},
  };
  for (const auto& corruption : kCorruptions) {
    const size_t at = image.find(corruption.from);
    ASSERT_NE(at, std::string::npos) << corruption.name;
    std::string mangled_text = image;
    mangled_text.replace(at, corruption.from.size(), corruption.to);
    std::stringstream mangled(mangled_text);
    Result<std::unique_ptr<Database>> loaded = LoadDatabase(mangled);
    EXPECT_FALSE(loaded.ok()) << corruption.name;
  }

  // Bit flips in the header magic.
  for (size_t i = 0; i < 6; ++i) {
    std::string mangled_text = image;
    mangled_text[i] ^= 0x20;
    std::stringstream mangled(mangled_text);
    EXPECT_FALSE(LoadDatabase(mangled).ok()) << "magic flip at " << i;
  }

  // The pristine image still loads — the corpus harness itself is sane.
  std::stringstream pristine(image);
  ASSERT_TRUE(LoadDatabase(pristine).ok());
}

// An MDP's filter state survives a save/load cycle: the reloaded
// database answers the same filter runs (checkpoint/restart scenario).
TEST(PersistenceTest, FilterStateSurvivesReload) {
  bench_support::WorkloadGenerator generator(
      {bench_support::BenchRuleType::kPath, 50, 0.1});
  bench_support::FilterFixture fixture;
  std::vector<int64_t> ends;
  for (size_t i = 0; i < 50; ++i) {
    ends.push_back(*fixture.RegisterRule(generator.RuleText(i)));
  }
  ASSERT_TRUE(
      fixture.RegisterDocumentBatch(generator.MakeDocumentBatch(0, 25)).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveDatabase(fixture.db(), stream).ok());
  Result<std::unique_ptr<Database>> loaded = LoadDatabase(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Continue filtering on the reloaded database.
  filter::RuleStore store(loaded->get());
  filter::FilterEngine engine(loaded->get(), &store);
  std::vector<rdf::RdfDocument> more = generator.MakeDocumentBatch(25, 25);
  rdf::Statements delta;
  for (const rdf::RdfDocument& doc : more) {
    rdf::Statements atoms = doc.ToStatements();
    delta.insert(delta.end(), atoms.begin(), atoms.end());
  }
  ASSERT_TRUE(filter::InsertAtoms(loaded->get(), delta).ok());
  Result<filter::FilterRunResult> result = engine.Run(delta);
  ASSERT_TRUE(result.ok()) << result.status();
  for (size_t i = 25; i < 50; ++i) {
    const std::vector<std::string>* matches = result->MatchesFor(ends[i]);
    ASSERT_NE(matches, nullptr) << "rule " << i;
    EXPECT_EQ(*matches,
              std::vector<std::string>{
                  bench_support::WorkloadGenerator::DocumentUri(i) + "#host"});
  }
}

}  // namespace
}  // namespace mdv::rdbms
