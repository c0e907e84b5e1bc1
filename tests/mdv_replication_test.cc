// Convergence tests of the versioned replica lifecycle: an LMR that
// (re)joins mid-storm over a faulty asynchronous transport — via the
// Clone-pattern snapshot protocol (JoinReplica) — must end up
// byte-identical (content, versions, match flags, referrer counts) to a
// replica that was attached and healthy the whole time. Covers the live
// join, the TTL-mode resync, the durable replay-then-delta-catchup
// reboot, and the LWW version semantics the whole thing rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mdv/lmr.h"
#include "mdv/metadata_provider.h"
#include "mdv/network.h"
#include "mdv/system.h"
#include "net/transport.h"
#include "rdf/parser.h"
#include "wal/log.h"

namespace mdv {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("mdv_replication_" + name);
  fs::remove_all(dir);
  return dir.string();
}

rdf::RdfDocument MakeDoc(const std::string& uri, const std::string& host,
                         int memory) {
  rdf::RdfDocument doc(uri);
  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory",
                   rdf::PropertyValue::Literal(std::to_string(memory)));
  info.AddProperty("cpu", rdf::PropertyValue::Literal("600"));
  rdf::Resource provider("host", "CycleProvider");
  provider.AddProperty("serverHost", rdf::PropertyValue::Literal(host));
  provider.AddProperty("serverInformation",
                       rdf::PropertyValue::ResourceRef(uri + "#info"));
  Status st = doc.AddResource(std::move(info));
  st = doc.AddResource(std::move(provider));
  (void)st;
  return doc;
}

constexpr const char* kRule =
    "search CycleProvider c register c "
    "where c.serverInformation.memory > 64";

/// Canonical dump including the per-entry version stamps but not the
/// subscription ids, so replicas fed by different subscriptions to the
/// same rule compare equal — and a replica that silently kept stale
/// content under a fresh version (or vice versa) does not.
std::string DumpCache(const LocalMetadataRepository& lmr) {
  std::ostringstream out;
  for (const std::string& uri : lmr.CachedUris()) {
    const CacheEntry* entry = lmr.Find(uri);
    out << uri << "|" << entry->resource.class_name() << "|v"
        << entry->version.origin << "." << entry->version.seq;
    std::vector<std::string> props;
    for (const rdf::Property& prop : entry->resource.properties()) {
      props.push_back(prop.name + "=" +
                      (prop.value.is_literal() ? "lit:" : "ref:") +
                      prop.value.text());
    }
    std::sort(props.begin(), props.end());
    for (const std::string& prop : props) out << "|" << prop;
    out << "|nsubs=" << entry->matched_subscriptions.size()
        << "|sr=" << entry->strong_referrers << "|local=" << entry->local
        << "\n";
  }
  return out.str();
}

NetworkOptions FaultyAsyncOptions() {
  NetworkOptions options;
  options.asynchronous = true;
  options.transport.latency_us = 100;
  options.transport.jitter_us = 200;
  options.transport.faults.drop_probability = 0.10;
  options.transport.faults.duplicate_probability = 0.05;
  options.transport.faults.reorder_probability = 0.10;
  options.transport.faults.seed = 20020611;  // Fixed: reproducible faults.
  options.reliability.retransmit_timeout_us = 2000;
  return options;
}

JoinOptions StormJoinOptions() {
  JoinOptions options;
  // The request frame itself is fire-and-forget and can be dropped;
  // keep the per-attempt timeout short so the retry loop, not the
  // test timeout, absorbs it.
  options.attempt_timeout_us = 2'000'000;
  options.max_attempts = 10;
  return options;
}

TEST(MdvReplicationTest, JoinDuringStormKeepsReplicaByteIdentical) {
  MdvSystem system(rdf::MakeObjectGlobeSchema(), {}, FaultyAsyncOptions());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* reference = system.AddRepository(provider);
  LocalMetadataRepository* joiner = system.AddRepository(provider);
  ASSERT_TRUE(reference->Subscribe(kRule).ok());
  ASSERT_TRUE(joiner->Subscribe(kRule).ok());
  ASSERT_TRUE(system.network().WaitQuiescent());

  // A publish storm with joins fired while frames are still in flight
  // (dropped, duplicated and reordered by the fault injector): the
  // joiner buffers the concurrent live stream and replays it over the
  // merged snapshot, so nothing is lost or applied out of order.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      const int doc = round * 8 + i;
      ASSERT_TRUE(provider
                      ->RegisterDocument(MakeDoc(
                          "d" + std::to_string(doc) + ".rdf", "x.example",
                          24 + 16 * doc))
                      .ok());
    }
    ASSERT_TRUE(provider
                    ->UpdateDocument(MakeDoc(
                        "d" + std::to_string(round * 8) + ".rdf", "x.example",
                        512))
                    .ok());
    ASSERT_TRUE(
        provider->DeleteDocument("d" + std::to_string(round * 8 + 3) + ".rdf")
            .ok());
    ASSERT_TRUE(joiner->JoinReplica(StormJoinOptions()).ok());
  }
  EXPECT_EQ(joiner->joins_completed(), 3);
  ASSERT_TRUE(system.network().WaitQuiescent());

  EXPECT_FALSE(DumpCache(*reference).empty());
  EXPECT_EQ(DumpCache(*reference), DumpCache(*joiner));
  EXPECT_TRUE(reference->AuditCacheInvariants().ok());
  EXPECT_TRUE(joiner->AuditCacheInvariants().ok());

  // The storm actually stormed.
  EXPECT_GT(system.network().transport_stats().dropped_faults, 0);
}

TEST(MdvReplicationTest, TtlReplicaResyncsViaJoin) {
  MdvSystem system(rdf::MakeObjectGlobeSchema(), {}, FaultyAsyncOptions());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* reference = system.AddRepository(provider);
  LocalMetadataRepository* ttl = system.AddRepository(provider);
  ASSERT_TRUE(reference->Subscribe(kRule).ok());
  ASSERT_TRUE(ttl->Subscribe(kRule).ok());
  ASSERT_TRUE(system.network().WaitQuiescent());
  ttl->set_consistency_mode(ConsistencyMode::kTimeToLive);

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(provider
                    ->RegisterDocument(MakeDoc("d" + std::to_string(i) +
                                                   ".rdf",
                                               "x.example", 24 + 16 * i))
                    .ok());
  }
  ASSERT_TRUE(provider->UpdateDocument(MakeDoc("d2.rdf", "x.example", 8)).ok());
  ASSERT_TRUE(provider->DeleteDocument("d9.rdf").ok());
  ASSERT_TRUE(system.network().WaitQuiescent());

  // Pushes were suppressed; a Refresh (= full join) resynchronizes.
  EXPECT_EQ(ttl->CacheSize(), 0u);
  ASSERT_TRUE(ttl->Refresh().ok());
  EXPECT_EQ(DumpCache(*reference), DumpCache(*ttl));
  EXPECT_TRUE(ttl->AuditCacheInvariants().ok());
}

TEST(MdvReplicationTest, DurableReplicaReplaysThenDeltaCatchesUp) {
  const std::string dir = TestDir("durable_rejoin");
  rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  Network network(FaultyAsyncOptions());
  MetadataProvider provider(&schema, &network);
  wal::WalOptions options;
  options.dir = dir;

  // A never-restarted reference replica alongside the one we crash.
  LocalMetadataRepository reference(2, &schema, &provider, &network);
  ASSERT_TRUE(reference.Subscribe(kRule).ok());

  {
    Result<std::unique_ptr<LocalMetadataRepository>> durable =
        LocalMetadataRepository::OpenDurable(1, &schema, &provider, &network,
                                             options);
    ASSERT_TRUE(durable.ok()) << durable.status();
    ASSERT_TRUE((*durable)->Subscribe(kRule).ok());
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(provider
                      .RegisterDocument(MakeDoc("d" + std::to_string(i) +
                                                    ".rdf",
                                                "x.example", 24 + 16 * i))
                      .ok());
    }
    ASSERT_TRUE(network.WaitQuiescent());
    EXPECT_GT((*durable)->CacheSize(), 0u);
  }  // "kill -9": destroyed mid-deployment, journal survives.

  // Missed while down: a few updates and one delete.
  ASSERT_TRUE(provider.UpdateDocument(MakeDoc("d4.rdf", "x.example", 999))
                  .ok());
  ASSERT_TRUE(provider.UpdateDocument(MakeDoc("d6.rdf", "x.example", 998))
                  .ok());
  ASSERT_TRUE(provider.DeleteDocument("d8.rdf").ok());
  ASSERT_TRUE(network.WaitQuiescent());

  // Reboot: local replay restores the pre-crash cache without touching
  // the network, then a delta join ships only what was missed.
  Result<std::unique_ptr<LocalMetadataRepository>> revived =
      LocalMetadataRepository::OpenDurable(1, &schema, &provider, &network,
                                           options);
  ASSERT_TRUE(revived.ok()) << revived.status();
  EXPECT_GT((*revived)->CacheSize(), 0u);
  EXPECT_FALSE((*revived)->version_vector().empty());

  const int64_t before_delta = network.transport_stats().bytes_sent;
  ASSERT_TRUE((*revived)->JoinReplica(StormJoinOptions()).ok());
  ASSERT_TRUE(network.WaitQuiescent());
  const int64_t delta_bytes =
      network.transport_stats().bytes_sent - before_delta;

  EXPECT_EQ(DumpCache(reference), DumpCache(**revived));
  EXPECT_TRUE((*revived)->AuditCacheInvariants().ok());

  // Acceptance: the delta catchup must move strictly fewer bytes than a
  // full snapshot of the same subscription set (measured on the same
  // replica, same transport).
  JoinOptions full = StormJoinOptions();
  full.delta = false;
  const int64_t before_full = network.transport_stats().bytes_sent;
  ASSERT_TRUE((*revived)->JoinReplica(full).ok());
  ASSERT_TRUE(network.WaitQuiescent());
  const int64_t full_bytes =
      network.transport_stats().bytes_sent - before_full;
  EXPECT_LT(delta_bytes, full_bytes)
      << "delta catchup shipped " << delta_bytes << "B, full snapshot "
      << full_bytes << "B";
  EXPECT_EQ(DumpCache(reference), DumpCache(**revived));
}

/// Every Refresh is served by a fresh snapshot sender that retires when
/// its last frame is acked; the LMR's end of that sender's flow must go
/// with it, or the flow state (and a durable LMR's checkpoint) grows by
/// one entry per refresh.
void ExpectRefreshesLeaveFlowCount(const NetworkOptions& options) {
  MdvSystem system(rdf::MakeObjectGlobeSchema(), {}, options);
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  ASSERT_TRUE(lmr->Subscribe(kRule).ok());
  ASSERT_TRUE(
      provider->RegisterDocument(MakeDoc("a.rdf", "x.example", 128)).ok());
  ASSERT_TRUE(system.network().WaitQuiescent());
  const size_t before = system.network().ReceiverFlowState(lmr->id()).size();
  EXPECT_EQ(before, 1u);  // The provider's own publish flow.

  for (int i = 0; i < 40; ++i) ASSERT_TRUE(lmr->Refresh().ok());
  ASSERT_TRUE(system.network().WaitQuiescent());
  EXPECT_EQ(system.network().ReceiverFlowState(lmr->id()).size(), before);
  EXPECT_EQ(lmr->CacheSize(), 2u);
  EXPECT_TRUE(lmr->AuditCacheInvariants().ok());
}

TEST(MdvReplicationTest, RefreshesReleaseReceiverFlowsOnInlineTransport) {
  ExpectRefreshesLeaveFlowCount(NetworkOptions{});
}

TEST(MdvReplicationTest, RefreshesReleaseReceiverFlowsOnThreadedTransport) {
  NetworkOptions options;
  options.asynchronous = true;
  ExpectRefreshesLeaveFlowCount(options);
}

TEST(MdvReplicationTest, VersionVectorAdvancesAndLastWriterWins) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  ASSERT_TRUE(lmr->Subscribe(kRule).ok());
  ASSERT_TRUE(provider->RegisterDocument(MakeDoc("d.rdf", "x", 92)).ok());
  ASSERT_TRUE(provider->UpdateDocument(MakeDoc("d.rdf", "x", 128)).ok());

  // Every delivered entry carries the publisher's stamp, and the
  // replica's vector tracks the high water per origin.
  const CacheEntry* info = lmr->Find("d.rdf#info");
  ASSERT_NE(info, nullptr);
  const uint64_t origin = info->version.origin;
  EXPECT_NE(origin, 0u);
  EXPECT_GE(info->version.seq, 1u);
  std::map<uint64_t, uint64_t> vector = lmr->version_vector();
  ASSERT_EQ(vector.count(origin), 1u);
  EXPECT_GE(vector[origin], info->version.seq);
  EXPECT_EQ(info->resource.FindProperty("memory")->text(), "128");

  // A stale write (an old version reordered past a newer one) loses.
  pubsub::Notification stale;
  stale.kind = pubsub::NotificationKind::kUpdate;
  stale.lmr = 1;
  rdf::Resource old_info("info", "ServerInformation");
  old_info.AddProperty("memory", rdf::PropertyValue::Literal("1"));
  old_info.AddProperty("cpu", rdf::PropertyValue::Literal("600"));
  stale.resources.push_back(
      {"d.rdf#info", old_info, false,
       pubsub::EntryVersion{origin, info->version.seq - 1}});
  lmr->ApplyNotification(stale);
  EXPECT_EQ(lmr->Find("d.rdf#info")->resource.FindProperty("memory")->text(),
            "128");

  // A genuinely newer one wins.
  pubsub::Notification newer = stale;
  newer.resources[0].version = pubsub::EntryVersion{origin, vector[origin] + 7};
  lmr->ApplyNotification(newer);
  EXPECT_EQ(lmr->Find("d.rdf#info")->resource.FindProperty("memory")->text(),
            "1");
  EXPECT_EQ(lmr->version_vector()[origin], vector[origin] + 7);
  EXPECT_TRUE(lmr->AuditCacheInvariants().ok());
}

}  // namespace
}  // namespace mdv
