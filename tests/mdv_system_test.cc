#include "mdv/system.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "rdf/parser.h"
#include "rdf/writer.h"

namespace mdv {
namespace {

rdf::RdfDocument MakeProviderDoc(const std::string& uri,
                                 const std::string& host_name, int memory) {
  rdf::RdfDocument doc(uri);
  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory",
                   rdf::PropertyValue::Literal(std::to_string(memory)));
  info.AddProperty("cpu", rdf::PropertyValue::Literal("600"));
  rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost", rdf::PropertyValue::Literal(host_name));
  host.AddProperty("serverPort", rdf::PropertyValue::Literal("5874"));
  host.AddProperty("serverInformation",
                   rdf::PropertyValue::ResourceRef(uri + "#info"));
  Status st = doc.AddResource(std::move(info));
  st = doc.AddResource(std::move(host));
  (void)st;
  return doc;
}

class MdvSystemTest : public ::testing::Test {
 protected:
  MdvSystemTest() : system_(rdf::MakeObjectGlobeSchema()) {
    provider_ = system_.AddProvider();
    lmr_ = system_.AddRepository(provider_);
  }

  MdvSystem system_;
  MetadataProvider* provider_;
  LocalMetadataRepository* lmr_;
};

TEST_F(MdvSystemTest, SubscribeThenRegisterReplicatesMatch) {
  Result<pubsub::SubscriptionId> sub = lmr_->Subscribe(
      "search CycleProvider c register c "
      "where c.serverHost contains 'uni-passau.de' "
      "and c.serverInformation.memory > 64");
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(lmr_->CacheSize(), 0u);

  ASSERT_TRUE(provider_
                  ->RegisterDocument(
                      MakeProviderDoc("d.rdf", "pirates.uni-passau.de", 92))
                  .ok());
  // The match and its strong closure arrive.
  EXPECT_EQ(lmr_->CacheSize(), 2u);
  const CacheEntry* host = lmr_->Find("d.rdf#host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->matched_subscriptions.count(*sub), 1u);
  const CacheEntry* info = lmr_->Find("d.rdf#info");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->matched_subscriptions.empty());
  EXPECT_EQ(info->strong_referrers, 1);
}

TEST_F(MdvSystemTest, RegisterThenSubscribeSeedsCache) {
  ASSERT_TRUE(provider_
                  ->RegisterDocument(
                      MakeProviderDoc("d.rdf", "pirates.uni-passau.de", 92))
                  .ok());
  Result<pubsub::SubscriptionId> sub = lmr_->Subscribe(
      "search CycleProvider c register c "
      "where c.serverInformation.memory > 64");
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(lmr_->CacheSize(), 2u);
  EXPECT_NE(lmr_->Find("d.rdf#host"), nullptr);
}

TEST_F(MdvSystemTest, NonMatchingMetadataStaysOut) {
  ASSERT_TRUE(lmr_->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("d.rdf", "x", 32)).ok());
  EXPECT_EQ(lmr_->CacheSize(), 0u);
}

TEST_F(MdvSystemTest, UpdatePropagatesNewVersionToCache) {
  ASSERT_TRUE(lmr_->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("d.rdf", "x", 92)).ok());
  ASSERT_EQ(lmr_->CacheSize(), 2u);

  // The info resource's memory changes but the match stays: the cached
  // copy must be refreshed.
  ASSERT_TRUE(
      provider_->UpdateDocument(MakeProviderDoc("d.rdf", "x", 128)).ok());
  const CacheEntry* info = lmr_->Find("d.rdf#info");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->resource.FindProperty("memory")->text(), "128");
}

TEST_F(MdvSystemTest, UpdateRemovingMatchEvictsViaGc) {
  ASSERT_TRUE(lmr_->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("d.rdf", "x", 92)).ok());
  ASSERT_EQ(lmr_->CacheSize(), 2u);

  ASSERT_TRUE(
      provider_->UpdateDocument(MakeProviderDoc("d.rdf", "x", 32)).ok());
  // Host no longer matches; the GC also collects the strongly
  // referenced info resource.
  EXPECT_EQ(lmr_->CacheSize(), 0u);
  EXPECT_GE(lmr_->gc_evictions(), 2);
}

TEST_F(MdvSystemTest, ResourceStaysWhileAnotherRuleMatches) {
  Result<pubsub::SubscriptionId> memory_sub =
      lmr_->Subscribe("search CycleProvider c register c "
                      "where c.serverInformation.memory > 64");
  Result<pubsub::SubscriptionId> host_sub =
      lmr_->Subscribe("search CycleProvider c register c "
                      "where c.serverHost contains 'uni-passau.de'");
  ASSERT_TRUE(memory_sub.ok());
  ASSERT_TRUE(host_sub.ok());
  ASSERT_TRUE(provider_
                  ->RegisterDocument(
                      MakeProviderDoc("d.rdf", "pirates.uni-passau.de", 92))
                  .ok());
  const CacheEntry* host = lmr_->Find("d.rdf#host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->matched_subscriptions.size(), 2u);

  // Lose only the memory match.
  ASSERT_TRUE(
      provider_
          ->UpdateDocument(MakeProviderDoc("d.rdf", "pirates.uni-passau.de", 32))
          .ok());
  host = lmr_->Find("d.rdf#host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->matched_subscriptions.size(), 1u);
  EXPECT_EQ(host->matched_subscriptions.count(*host_sub), 1u);
}

TEST_F(MdvSystemTest, DocumentDeletionEvictsFromCache) {
  ASSERT_TRUE(lmr_->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("d.rdf", "x", 92)).ok());
  ASSERT_EQ(lmr_->CacheSize(), 2u);
  ASSERT_TRUE(provider_->DeleteDocument("d.rdf").ok());
  EXPECT_EQ(lmr_->CacheSize(), 0u);
}

TEST_F(MdvSystemTest, UnsubscribeDropsCacheViaGc) {
  Result<pubsub::SubscriptionId> sub =
      lmr_->Subscribe("search CycleProvider c register c "
                      "where c.serverInformation.memory > 64");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("d.rdf", "x", 92)).ok());
  ASSERT_EQ(lmr_->CacheSize(), 2u);
  ASSERT_TRUE(lmr_->Unsubscribe(*sub).ok());
  EXPECT_EQ(lmr_->CacheSize(), 0u);
}

TEST_F(MdvSystemTest, QueriesRunAgainstLocalCacheOnly) {
  ASSERT_TRUE(lmr_->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(provider_
                  ->RegisterDocument(
                      MakeProviderDoc("match.rdf", "a.uni-passau.de", 92))
                  .ok());
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("other.rdf", "b", 16))
          .ok());

  // Cached: only match.rdf. The query sees only the cache.
  Result<std::vector<QueryMatch>> result = lmr_->Query(
      "search CycleProvider c register c where c.serverPort = 5874");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].uri_reference, "match.rdf#host");
}

TEST_F(MdvSystemTest, QueryWithJoinOverCache) {
  ASSERT_TRUE(lmr_->Subscribe("search CycleProvider c register c").ok());
  ASSERT_TRUE(provider_
                  ->RegisterDocument(
                      MakeProviderDoc("d.rdf", "pirates.uni-passau.de", 92))
                  .ok());
  obs::MetricsRegistry& metrics = obs::DefaultMetrics();
  obs::Histogram& query_us = metrics.GetHistogram("mdv.lmr.query_us");
  obs::Counter& bindings = metrics.GetCounter("mdv.lmr.query_bindings_total");
  const int64_t queries_before = query_us.GetSnapshot().count;
  const int64_t bindings_before = bindings.value();
  Result<std::vector<QueryMatch>> result = lmr_->Query(
      "search CycleProvider c register c "
      "where c.serverInformation.memory > 64 "
      "and c.serverHost contains 'passau'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(query_us.GetSnapshot().count, queries_before + 1);
  // Filtering c and its ServerInformation tries one binding each; the
  // join then binds c and looks its ServerInformation up: 4 in all.
  EXPECT_EQ(bindings.value() - bindings_before, 4);
}

TEST_F(MdvSystemTest, LocalMetadataQueryableButNotPublished) {
  rdf::RdfDocument local = MakeProviderDoc("local.rdf", "private.lan", 92);
  ASSERT_TRUE(lmr_->RegisterLocalDocument(local).ok());
  EXPECT_EQ(lmr_->CacheSize(), 2u);
  EXPECT_TRUE(lmr_->Find("local.rdf#host")->local);
  // Not at the MDP:
  EXPECT_EQ(provider_->documents().size(), 0u);
  Result<std::vector<QueryMatch>> result = lmr_->Query(
      "search CycleProvider c register c "
      "where c.serverHost contains 'private'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(MdvSystemTest, BackboneReplicationReachesAllProviders) {
  MetadataProvider* second = system_.AddProvider();
  LocalMetadataRepository* remote_lmr = system_.AddRepository(second);
  ASSERT_TRUE(remote_lmr
                  ->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  // Registration at the *first* provider reaches the second's LMR.
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("d.rdf", "x", 92)).ok());
  EXPECT_EQ(second->documents().size(), 1u);
  EXPECT_EQ(remote_lmr->CacheSize(), 2u);
}

TEST_F(MdvSystemTest, BrowseEvaluatesWithoutSubscription) {
  ASSERT_TRUE(
      provider_->RegisterDocument(MakeProviderDoc("d.rdf", "x", 92)).ok());
  Result<std::vector<std::string>> matches = provider_->Browse(
      "search CycleProvider c register c "
      "where c.serverInformation.memory > 64");
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(*matches, std::vector<std::string>{"d.rdf#host"});
  // Browsing is transient: no rules stay registered.
  EXPECT_EQ(provider_->rule_store().NumAtomicRules(), 0u);
}

TEST_F(MdvSystemTest, NamedSubscriptionUsableAsExtension) {
  ASSERT_TRUE(lmr_->Subscribe(
                      "search CycleProvider c register c "
                      "where c.serverHost contains 'uni-passau.de'",
                      "PassauProviders")
                  .ok());
  Result<pubsub::SubscriptionId> narrowed = lmr_->Subscribe(
      "search PassauProviders p register p "
      "where p.serverInformation.memory > 64");
  ASSERT_TRUE(narrowed.ok()) << narrowed.status();
  ASSERT_TRUE(provider_
                  ->RegisterDocument(
                      MakeProviderDoc("d.rdf", "pirates.uni-passau.de", 92))
                  .ok());
  const CacheEntry* host = lmr_->Find("d.rdf#host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->matched_subscriptions.size(), 2u);
}

TEST_F(MdvSystemTest, XmlRegistrationPath) {
  constexpr char xml[] = R"(<rdf:RDF>
    <og:CycleProvider rdf:ID="host">
      <og:serverHost>pirates.uni-passau.de</og:serverHost>
      <og:serverInformation>
        <og:ServerInformation rdf:ID="info">
          <og:memory>92</og:memory>
        </og:ServerInformation>
      </og:serverInformation>
    </og:CycleProvider>
  </rdf:RDF>)";
  ASSERT_TRUE(lmr_->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(provider_->RegisterDocumentXml(xml, "doc.rdf").ok());
  EXPECT_NE(lmr_->Find("doc.rdf#host"), nullptr);
}

TEST_F(MdvSystemTest, SchemaViolationRejected) {
  rdf::RdfDocument doc("d.rdf");
  ASSERT_TRUE(doc.AddResource(rdf::Resource("x", "Bogus")).ok());
  EXPECT_EQ(provider_->RegisterDocument(doc).code(),
            StatusCode::kSchemaViolation);
}

}  // namespace
}  // namespace mdv
