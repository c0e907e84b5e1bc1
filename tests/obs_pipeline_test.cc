// End-to-end observability test: one MDP publish must produce a single
// connected trace covering the whole pipeline — mdp.publish → filter.run
// (with initial-iteration / delta-join / materialization children) →
// publish.new_matches → net.enqueue → net.deliver →
// lmr.apply_notification — and the registry counters must reflect the
// run.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "mdv/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/parser.h"

namespace mdv {
namespace {

rdf::RdfDocument MakeProviderDoc(const std::string& uri) {
  rdf::RdfDocument doc(uri);
  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory", rdf::PropertyValue::Literal("92"));
  info.AddProperty("cpu", rdf::PropertyValue::Literal("600"));
  rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost",
                   rdf::PropertyValue::Literal("pirates.uni-passau.de"));
  host.AddProperty("serverPort", rdf::PropertyValue::Literal("5874"));
  host.AddProperty("serverInformation",
                   rdf::PropertyValue::ResourceRef(uri + "#info"));
  Status st = doc.AddResource(std::move(info));
  st = doc.AddResource(std::move(host));
  (void)st;
  return doc;
}

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) out.push_back(span);
  }
  return out;
}

TEST(ObsPipelineTest, OnePublishIsOneConnectedTrace) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  // A join rule, so the run needs delta-join iterations (Figure 9).
  ASSERT_TRUE(lmr->Subscribe("search CycleProvider c, ServerInformation s "
                             "register c "
                             "where c.serverInformation = s "
                             "and s.memory > 64 and s.cpu > 500")
                  .ok());

  // Only the publish under test should be retained.
  obs::DefaultTracer().Clear();
  obs::MetricsSnapshot before = obs::DefaultMetrics().Snapshot();

  ASSERT_TRUE(provider->RegisterDocument(MakeProviderDoc("d.rdf")).ok());
  ASSERT_EQ(lmr->CacheSize(), 2u);  // host + strong closure (info).

  std::vector<obs::SpanRecord> spans = obs::DefaultTracer().Snapshot();
  ASSERT_FALSE(spans.empty());

  // Exactly one root, and it is the MDP publish.
  std::vector<obs::SpanRecord> roots;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id == 0) roots.push_back(span);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "mdp.publish");
  const uint64_t trace_id = roots[0].trace_id;
  EXPECT_EQ(trace_id, roots[0].span_id);

  // Every retained span belongs to that trace, and every parent link
  // resolves to another span of the trace.
  std::set<uint64_t> span_ids;
  for (const obs::SpanRecord& span : spans) span_ids.insert(span.span_id);
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id) << span.name;
    if (span.parent_id != 0) {
      EXPECT_EQ(span_ids.count(span.parent_id), 1u) << span.name;
    }
  }

  // The trace covers the whole pipeline.
  for (const char* name :
       {"mdp.publish", "filter.run", "filter.initial_iteration",
        "filter.delta_join", "filter.materialize", "publish.new_matches",
        "net.enqueue", "net.deliver", "lmr.apply_notification"}) {
    EXPECT_FALSE(SpansNamed(spans, name).empty()) << name;
  }

  // The filter stages nest under the filter run; the LMR application is
  // reachable from the publish (its parent is the stamped mdp.publish
  // context).
  const obs::SpanRecord run = SpansNamed(spans, "filter.run")[0];
  EXPECT_EQ(run.parent_id, roots[0].span_id);
  for (const char* stage : {"filter.initial_iteration", "filter.delta_join",
                            "filter.materialize"}) {
    for (const obs::SpanRecord& span : SpansNamed(spans, stage)) {
      EXPECT_EQ(span.parent_id, run.span_id) << stage;
    }
  }
  EXPECT_EQ(SpansNamed(spans, "lmr.apply_notification")[0].parent_id,
            roots[0].span_id);

  // Registry counters moved with the publish.
  obs::MetricsSnapshot after = obs::DefaultMetrics().Snapshot();
  auto delta = [&](const std::string& name) {
    auto it = before.counters.find(name);
    int64_t prev = it == before.counters.end() ? 0 : it->second;
    return after.counters.at(name) - prev;
  };
  EXPECT_EQ(delta("mdv.mdp.documents_registered_total"), 1);
  EXPECT_EQ(delta("mdv.filter.runs_total"), 1);
  EXPECT_EQ(delta("mdv.publish.notifications_total"), 1);
  EXPECT_EQ(delta("mdv.network.messages_total"), 1);
  EXPECT_EQ(delta("mdv.lmr.notifications_applied_total"), 1);
  // The delivered notification shipped the match and its strong closure.
  EXPECT_EQ(delta("mdv.network.resources_shipped_total"), 2);
}

TEST(ObsPipelineTest, ShardRunSpansParentUnderFilterRunAcrossWorkers) {
  // The sharded engine fans RunShard out to pool workers whose
  // thread-local span stacks are empty; the run's SpanContext must be
  // passed explicitly or the shard spans would start orphan traces.
  filter::RuleStoreOptions rule_options;
  rule_options.num_shards = 4;
  filter::EngineOptions engine_options;
  engine_options.num_workers = 2;
  MdvSystem system(rdf::MakeObjectGlobeSchema(), rule_options, {},
                   engine_options);
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  ASSERT_TRUE(lmr->Subscribe("search CycleProvider c register c "
                             "where c.serverInformation.memory > 64")
                  .ok());
  obs::DefaultTracer().Clear();
  ASSERT_TRUE(provider->RegisterDocument(MakeProviderDoc("d.rdf")).ok());

  std::vector<obs::SpanRecord> spans = obs::DefaultTracer().Snapshot();
  std::vector<obs::SpanRecord> runs = SpansNamed(spans, "filter.run");
  ASSERT_EQ(runs.size(), 1u);
  std::vector<obs::SpanRecord> shard_runs =
      SpansNamed(spans, "filter.shard_run");
  ASSERT_EQ(shard_runs.size(), 4u);  // One per shard.
  for (const obs::SpanRecord& shard : shard_runs) {
    EXPECT_EQ(shard.trace_id, runs[0].trace_id);
    EXPECT_EQ(shard.parent_id, runs[0].span_id);
  }
  // The pool actually ran the batch (2 workers were live for it).
  obs::MetricsSnapshot snap = obs::DefaultMetrics().Snapshot();
  EXPECT_GE(snap.gauges.at("mdv.filter.pool.workers"), 2);
  EXPECT_GE(snap.counters.at("mdv.filter.pool.tasks_total"), 4);
}

TEST(ObsPipelineTest, TraceCarriedOnNotificationSurvivesRefresh) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  lmr->set_consistency_mode(ConsistencyMode::kTimeToLive);
  ASSERT_TRUE(lmr->Subscribe("search CycleProvider c register c "
                             "where c.serverInformation.memory > 64")
                  .ok());
  ASSERT_TRUE(provider->RegisterDocument(MakeProviderDoc("d.rdf")).ok());
  EXPECT_EQ(lmr->CacheSize(), 0u);  // TTL mode ignores pushes.

  obs::DefaultTracer().Clear();
  ASSERT_TRUE(lmr->Refresh().ok());
  EXPECT_EQ(lmr->CacheSize(), 2u);

  // Refresh (now a full replica join) merges the staged snapshot
  // outside any delivery call chain; the finalize span still joins the
  // serve's trace via the context carried on the SnapshotDone
  // notification instead of starting a parentless trace.
  std::vector<obs::SpanRecord> spans = obs::DefaultTracer().Snapshot();
  std::vector<obs::SpanRecord> applies =
      SpansNamed(spans, "lmr.finalize_join");
  ASSERT_FALSE(applies.empty());
  std::vector<obs::SpanRecord> snapshots =
      SpansNamed(spans, "mdp.serve_snapshot");
  ASSERT_FALSE(snapshots.empty());
  EXPECT_EQ(applies[0].trace_id, snapshots[0].trace_id);
  EXPECT_EQ(applies[0].parent_id, snapshots[0].span_id);
}

}  // namespace
}  // namespace mdv
