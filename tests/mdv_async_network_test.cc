// Acceptance tests of the asynchronous notification transport: the MDV
// layer running over the wire codec + bounded queues + at-least-once
// redelivery must behave observably like the synchronous bus — every
// LMR cache converges to byte-identical contents under injected frame
// loss, duplication and reordering — and one publish must remain one
// connected trace across the async boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mdv/system.h"
#include "obs/trace.h"
#include "rdf/parser.h"

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

/// Canonical textual dump of an LMR cache: every entry with its full
/// content and bookkeeping, deterministically ordered, so two caches
/// are equal iff the dumps are byte-identical.
std::string DumpCache(const LocalMetadataRepository& lmr) {
  std::ostringstream out;
  for (const std::string& uri : lmr.CachedUris()) {
    const CacheEntry* entry = lmr.Find(uri);
    out << uri << "|" << entry->resource.class_name() << "|"
        << entry->resource.local_id() << "\n";
    std::vector<std::string> props;
    for (const rdf::Property& prop : entry->resource.properties()) {
      props.push_back(prop.name + "=" +
                      (prop.value.is_literal() ? "lit:" : "ref:") +
                      prop.value.text());
    }
    std::sort(props.begin(), props.end());
    for (const std::string& prop : props) out << "  p " << prop << "\n";
    out << "  subs";
    for (pubsub::SubscriptionId sub : entry->matched_subscriptions) {
      out << " " << sub;
    }
    out << "\n  strong_referrers " << entry->strong_referrers << " local "
        << entry->local << "\n";
    std::vector<std::string> targets = entry->strong_targets;
    std::sort(targets.begin(), targets.end());
    for (const std::string& target : targets) out << "  t " << target << "\n";
  }
  return out.str();
}

/// Runs the identical publish workload against `system` and returns the
/// canonical dump of each LMR cache. WaitQuiescent is a no-op on the
/// synchronous bus, so the same script drives both fidelity levels.
std::vector<std::string> RunWorkload(MdvSystem* system) {
  MetadataProvider* provider = system->AddProvider();
  LocalMetadataRepository* lmr1 = system->AddRepository(provider);
  LocalMetadataRepository* lmr2 = system->AddRepository(provider);

  EXPECT_TRUE(lmr1->Subscribe("search CycleProvider c register c "
                              "where c.serverInformation.memory > 64")
                  .ok());
  EXPECT_TRUE(lmr2->Subscribe("search CycleProvider c, ServerInformation s "
                              "register c "
                              "where c.serverInformation = s "
                              "and s.memory > 32 and s.cpu > 500")
                  .ok());
  EXPECT_TRUE(lmr2->Subscribe("search CycleProvider c register c "
                              "where c.serverHost contains 'uni-passau.de'")
                  .ok());
  EXPECT_TRUE(system->network().WaitQuiescent());

  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(provider
                    ->RegisterDocument(MakeProviderDoc(
                        "d" + std::to_string(i) + ".rdf",
                        i % 2 == 0 ? "pirates.uni-passau.de" : "cs.example.edu",
                        24 + 16 * i))
                    .ok());
  }
  // Updates that add, keep and drop matches.
  EXPECT_TRUE(
      provider->UpdateDocument(MakeProviderDoc("d0.rdf", "other.example", 512))
          .ok());
  EXPECT_TRUE(
      provider
          ->UpdateDocument(MakeProviderDoc("d3.rdf", "pirates.uni-passau.de", 8))
          .ok());
  EXPECT_TRUE(provider->DeleteDocument("d5.rdf").ok());
  EXPECT_TRUE(provider->DeleteDocument("d12.rdf").ok());
  EXPECT_TRUE(system->network().WaitQuiescent());

  std::vector<std::string> dumps;
  dumps.push_back(DumpCache(*lmr1));
  dumps.push_back(DumpCache(*lmr2));
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_FALSE(dumps[1].empty());
  return dumps;
}

TEST(MdvAsyncNetworkTest, FaultyAsyncTransportConvergesToSyncCaches) {
  MdvSystem sync_system(rdf::MakeObjectGlobeSchema());
  std::vector<std::string> sync_dumps = RunWorkload(&sync_system);

  NetworkOptions options;
  options.asynchronous = true;
  options.transport.latency_us = 100;
  options.transport.jitter_us = 200;
  options.transport.faults.drop_probability = 0.10;
  options.transport.faults.duplicate_probability = 0.05;
  options.transport.faults.reorder_probability = 0.10;
  options.transport.faults.seed = 20020611;  // Fixed: reproducible faults.
  options.reliability.retransmit_timeout_us = 2000;
  MdvSystem async_system(rdf::MakeObjectGlobeSchema(), {}, options);
  std::vector<std::string> async_dumps = RunWorkload(&async_system);

  ASSERT_EQ(sync_dumps.size(), async_dumps.size());
  for (size_t i = 0; i < sync_dumps.size(); ++i) {
    EXPECT_EQ(sync_dumps[i], async_dumps[i]) << "LMR " << i;
  }

  // The faults actually happened and the protocol worked around them.
  net::LinkStats link = async_system.network().link_stats();
  EXPECT_GT(link.published, 0);
  EXPECT_EQ(link.delivered, link.published);
  EXPECT_GT(link.redelivered, 0);
  EXPECT_GT(link.dedup_suppressed, 0);
  EXPECT_EQ(link.dead_lettered, 0);
  net::TransportStats transport = async_system.network().transport_stats();
  EXPECT_GT(transport.dropped_faults, 0);
}

TEST(MdvAsyncNetworkTest, LossyDeterministicScheduleStillConverges) {
  // Every third notify frame vanishes (deterministically), including
  // redeliveries; convergence must come purely from retransmission.
  MdvSystem sync_system(rdf::MakeObjectGlobeSchema());
  std::vector<std::string> sync_dumps = RunWorkload(&sync_system);

  NetworkOptions options;
  options.asynchronous = true;
  options.reliability.retransmit_timeout_us = 1000;
  options.reliability.scan_interval_us = 500;
  MdvSystem async_system(rdf::MakeObjectGlobeSchema(), {}, options);
  async_system.network().set_fault_schedule(
      [](uint64_t index) -> std::optional<net::FaultDecision> {
        net::FaultDecision decision;
        decision.drop = index % 3 == 2;
        return decision;
      });
  std::vector<std::string> async_dumps = RunWorkload(&async_system);

  ASSERT_EQ(sync_dumps.size(), async_dumps.size());
  for (size_t i = 0; i < sync_dumps.size(); ++i) {
    EXPECT_EQ(sync_dumps[i], async_dumps[i]) << "LMR " << i;
  }
}

TEST(MdvAsyncNetworkTest, OnePublishIsOneConnectedTraceAcrossAsyncBoundary) {
  NetworkOptions options;
  options.asynchronous = true;
  MdvSystem system(rdf::MakeObjectGlobeSchema(), {}, options);
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  ASSERT_TRUE(lmr->Subscribe("search CycleProvider c register c "
                             "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(system.network().WaitQuiescent());

  obs::DefaultTracer().Clear();
  ASSERT_TRUE(
      provider
          ->RegisterDocument(MakeProviderDoc("d.rdf", "pirates.uni-passau.de",
                                             92))
          .ok());
  ASSERT_TRUE(system.network().WaitQuiescent());
  EXPECT_EQ(lmr->CacheSize(), 2u);

  std::vector<obs::SpanRecord> spans = obs::DefaultTracer().Snapshot();
  ASSERT_FALSE(spans.empty());

  // Exactly one root: the MDP publish. Every other span — including the
  // ones created on transport worker threads after the publish call
  // already returned — joins its trace through the wire-carried context.
  std::vector<obs::SpanRecord> roots;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id == 0) roots.push_back(span);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "mdp.publish");
  const uint64_t trace_id = roots[0].trace_id;

  std::set<uint64_t> span_ids;
  for (const obs::SpanRecord& span : spans) span_ids.insert(span.span_id);
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id) << span.name;
    if (span.parent_id != 0) {
      EXPECT_EQ(span_ids.count(span.parent_id), 1u) << span.name;
    }
  }

  // The async hops are all present in the one trace.
  for (const char* name :
       {"net.enqueue", "net.deliver", "net.ack", "lmr.apply_notification"}) {
    EXPECT_TRUE(std::any_of(
        spans.begin(), spans.end(),
        [&](const obs::SpanRecord& span) { return span.name == name; }))
        << name;
  }
}

TEST(MdvAsyncNetworkTest, AsyncStatsAndUndeliverableMirrorSyncSemantics) {
  NetworkOptions options;
  options.asynchronous = true;
  MdvSystem system(rdf::MakeObjectGlobeSchema(), {}, options);

  // No LMR attached: the publish is counted undeliverable, like the
  // synchronous bus does.
  pubsub::Notification note;
  note.kind = pubsub::NotificationKind::kInsert;
  note.lmr = 42;
  system.network().Deliver(note, system.network().RegisterSender());
  ASSERT_TRUE(system.network().WaitQuiescent());
  EXPECT_EQ(system.network().stats().messages, 1);
  EXPECT_EQ(system.network().stats().undeliverable, 1);
}

}  // namespace
}  // namespace mdv
