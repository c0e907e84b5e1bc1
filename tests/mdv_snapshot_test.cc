// MDP snapshot persistence: a provider saved and restored must keep its
// documents, rule base, materialized filter state and subscriptions, and
// continue filtering/publishing seamlessly.

#include <gtest/gtest.h>

#include <sstream>

#include "filter/tables.h"
#include "mdv/system.h"
#include "rdbms/database.h"
#include "rdbms/persistence.h"
#include "rdbms/schema.h"

namespace mdv {
namespace {

rdf::RdfDocument MakeDoc(const std::string& uri, int memory) {
  rdf::RdfDocument doc(uri);
  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory",
                   rdf::PropertyValue::Literal(std::to_string(memory)));
  rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost",
                   rdf::PropertyValue::Literal("x.uni-passau.de"));
  host.AddProperty("serverInformation",
                   rdf::PropertyValue::ResourceRef(uri + "#info"));
  Status st = doc.AddResource(std::move(info));
  st = doc.AddResource(std::move(host));
  (void)st;
  return doc;
}

TEST(SnapshotTest, RoundTripsDocumentsRulesAndSubscriptions) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  Result<pubsub::SubscriptionId> sub =
      lmr->Subscribe("search CycleProvider c register c "
                     "where c.serverInformation.memory > 64",
                     "BigProviders");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(provider->RegisterDocument(MakeDoc("a.rdf", 92)).ok());
  ASSERT_TRUE(provider->RegisterDocument(MakeDoc("b.rdf", 16)).ok());

  std::stringstream snapshot;
  ASSERT_TRUE(provider->SaveSnapshot(snapshot).ok());

  // Restore into a *fresh* provider on the same network.
  MetadataProvider* restored = system.AddProvider();
  ASSERT_TRUE(restored->LoadSnapshot(snapshot).ok());

  EXPECT_EQ(restored->documents().size(), 2u);
  EXPECT_EQ(restored->rule_store().NumAtomicRules(),
            provider->rule_store().NumAtomicRules());
  EXPECT_EQ(restored->subscriptions().size(), 1u);
  const pubsub::Subscription* restored_sub =
      restored->subscriptions().Find(*sub);
  ASSERT_NE(restored_sub, nullptr);
  EXPECT_EQ(restored_sub->lmr, lmr->id());
  EXPECT_EQ(restored_sub->name, "BigProviders");
  EXPECT_EQ(restored_sub->type, "CycleProvider");

  // The restored provider keeps filtering: a new matching document is
  // published to the (still attached) LMR.
  size_t before = lmr->CacheSize();
  ASSERT_TRUE(restored->RegisterDocument(MakeDoc("c.rdf", 128)).ok());
  EXPECT_EQ(lmr->CacheSize(), before + 2);

  // Materialized state survived: re-registering the original document at
  // the restored provider is rejected (it is already known).
  EXPECT_EQ(restored->RegisterDocument(MakeDoc("a.rdf", 92)).code(),
            StatusCode::kAlreadyExists);
}

TEST(SnapshotTest, RestoredProviderServesSnapshots) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  Result<pubsub::SubscriptionId> sub =
      lmr->Subscribe("search CycleProvider c register c "
                     "where c.serverInformation.memory > 64");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(provider->RegisterDocument(MakeDoc("a.rdf", 92)).ok());

  std::stringstream snapshot;
  ASSERT_TRUE(provider->SaveSnapshot(snapshot).ok());
  MetadataProvider* restored = system.AddProvider();
  ASSERT_TRUE(restored->LoadSnapshot(snapshot).ok());

  // The TTL pull path works against the restored state.
  Result<pubsub::Notification> pulled =
      restored->SnapshotSubscription(*sub);
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  ASSERT_EQ(pulled->resources.size(), 2u);
  EXPECT_EQ(pulled->resources[0].uri_reference, "a.rdf#host");
}

TEST(SnapshotTest, LoadErrors) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  {
    std::stringstream empty;
    EXPECT_EQ(provider->LoadSnapshot(empty).code(), StatusCode::kParseError);
  }
  {
    std::stringstream bad("MDVSNAP1\nDATABASE\nGARBAGE\n");
    EXPECT_EQ(provider->LoadSnapshot(bad).code(), StatusCode::kParseError);
  }
  {
    std::stringstream truncated(
        "MDVSNAP1\nDATABASE\nMDVDB1\nEND\nDOCUMENTS 1\nDOC a.rdf 10\nshort");
    EXPECT_EQ(provider->LoadSnapshot(truncated).code(),
              StatusCode::kParseError);
  }
}

TEST(SnapshotTest, EmptyProviderRoundTrips) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  std::stringstream snapshot;
  ASSERT_TRUE(provider->SaveSnapshot(snapshot).ok());
  MetadataProvider* restored = system.AddProvider();
  ASSERT_TRUE(restored->LoadSnapshot(snapshot).ok());
  EXPECT_EQ(restored->documents().size(), 0u);
  EXPECT_EQ(restored->subscriptions().size(), 0u);
}

/// A provider whose rule store has `num_shards` shards, with twelve
/// subscriptions (distinct thresholds, so they land in several shards)
/// and `docs` matching documents.
std::unique_ptr<MdvSystem> ShardedSystem(int num_shards, int docs) {
  filter::RuleStoreOptions rule_options;
  rule_options.num_shards = num_shards;
  auto system =
      std::make_unique<MdvSystem>(rdf::MakeObjectGlobeSchema(), rule_options);
  MetadataProvider* provider = system->AddProvider();
  LocalMetadataRepository* lmr = system->AddRepository(provider);
  for (int i = 0; i < 12; ++i) {
    Result<pubsub::SubscriptionId> sub =
        lmr->Subscribe("search CycleProvider c register c "
                       "where c.serverInformation.memory > " +
                       std::to_string(i));
    EXPECT_TRUE(sub.ok()) << sub.status();
  }
  for (int d = 0; d < docs; ++d) {
    Status st = provider->RegisterDocument(
        MakeDoc("d" + std::to_string(d) + ".rdf", 64));
    EXPECT_TRUE(st.ok()) << st;
  }
  return system;
}

TEST(SnapshotTest, OneShardSnapshotIntoFourShardProviderIsRefused) {
  std::unique_ptr<MdvSystem> source = ShardedSystem(1, 2);
  std::stringstream snapshot;
  ASSERT_TRUE(source->providers()[0]->SaveSnapshot(snapshot).ok());

  std::unique_ptr<MdvSystem> target = ShardedSystem(4, 1);
  MetadataProvider* provider = target->providers()[0].get();
  EXPECT_EQ(provider->LoadSnapshot(snapshot).code(),
            StatusCode::kInvalidArgument);
  // Nothing was swapped: the target keeps its own state and filters on.
  EXPECT_EQ(provider->documents().size(), 1u);
  EXPECT_EQ(provider->subscriptions().size(), 12u);
  ASSERT_TRUE(provider->RegisterDocument(MakeDoc("late.rdf", 64)).ok());
  EXPECT_EQ(target->repositories()[0]->CacheSize(), 4u);  // 2 docs x 2.
}

TEST(SnapshotTest, FourShardSnapshotIntoOneShardProviderIsRefused) {
  std::unique_ptr<MdvSystem> source = ShardedSystem(4, 2);
  std::stringstream snapshot;
  ASSERT_TRUE(source->providers()[0]->SaveSnapshot(snapshot).ok());

  std::unique_ptr<MdvSystem> target = ShardedSystem(1, 1);
  MetadataProvider* provider = target->providers()[0].get();
  EXPECT_EQ(provider->LoadSnapshot(snapshot).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(provider->documents().size(), 1u);
  EXPECT_EQ(provider->subscriptions().size(), 12u);
}

TEST(SnapshotTest, TablesTheLayoutDoesNotReadAreIgnored) {
  // Snapshots of earlier versions carry per-shard tables this engine no
  // longer keeps; such a snapshot loads, and the extra tables stay inert.
  for (int num_shards : {1, 4}) {
    rdbms::Database db;
    ASSERT_TRUE(
        filter::CreateFilterTables(&db, filter::TableOptions{}, num_shards)
            .ok());
    for (int shard = 0; shard < filter::TotalShardCount(num_shards);
         ++shard) {
      ASSERT_TRUE(
          db.CreateTable(rdbms::TableSchema(
                             filter::ShardTableName("RetiredTable", shard),
                             {rdbms::ColumnDef{"uri_reference",
                                               rdbms::ColumnType::kString},
                              rdbms::ColumnDef{"rule_id",
                                               rdbms::ColumnType::kInt64}}))
              .ok());
    }
    std::stringstream snapshot;
    snapshot << "MDVSNAP1\nDATABASE\n";
    ASSERT_TRUE(rdbms::SaveDatabase(db, snapshot).ok());
    snapshot << "DOCUMENTS 0\nSUBSCRIPTIONS 0\nENDSNAP\n";

    std::unique_ptr<MdvSystem> target = ShardedSystem(num_shards, 0);
    MetadataProvider* provider = target->providers()[0].get();
    Status loaded = provider->LoadSnapshot(snapshot);
    ASSERT_TRUE(loaded.ok()) << loaded;
    EXPECT_EQ(provider->subscriptions().size(), 0u);
    LocalMetadataRepository* lmr = target->AddRepository(provider);
    ASSERT_TRUE(lmr->Subscribe("search CycleProvider c register c "
                               "where c.serverInformation.memory > 8")
                    .ok());
    ASSERT_TRUE(provider->RegisterDocument(MakeDoc("a.rdf", 64)).ok());
    EXPECT_EQ(lmr->CacheSize(), 2u) << num_shards << " shards";
  }
}

}  // namespace
}  // namespace mdv
