// TraceAggregator tests: synthetic span trees with known timings must
// produce exact per-stage attribution that tiles the end-to-end window;
// structurally broken traces are flagged incomplete instead of skewing
// the latency figures; and a live system run aggregates cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mdv/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_aggregate.h"
#include "rdf/parser.h"
#include "rdf/schema.h"

namespace mdv::obs {
namespace {

constexpr int64_t kMs = 1'000'000;  // ns per millisecond.

SpanRecord MakeSpan(uint64_t trace, uint64_t id, uint64_t parent,
                    const std::string& name, int64_t start_ns, int64_t end_ns,
                    const std::string& lmr = "") {
  SpanRecord span;
  span.trace_id = trace;
  span.span_id = id;
  span.parent_id = parent;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  if (!lmr.empty()) span.attributes.emplace_back("lmr", lmr);
  return span;
}

TEST(TraceAggregatorTest, AsyncTraceTilesAllSevenStages) {
  // publish(0..10ms) ── filter(1..3) ── enqueue(3.5..4) ──
  //   deliver(6..7) ── apply(8..10), all for lmr 7.
  std::vector<SpanRecord> spans = {
      MakeSpan(1, 1, 0, "mdp.publish", 0, 10 * kMs),
      MakeSpan(1, 2, 1, "filter.run", 1 * kMs, 3 * kMs),
      MakeSpan(1, 3, 1, "net.enqueue", 3 * kMs + kMs / 2, 4 * kMs, "7"),
      MakeSpan(1, 4, 1, "net.deliver", 6 * kMs, 7 * kMs, "7"),
      MakeSpan(1, 5, 1, "lmr.apply_notification", 8 * kMs, 10 * kMs, "7"),
  };
  MetricsRegistry registry;
  TraceAggregator agg(&registry);
  agg.Ingest(spans);

  EXPECT_EQ(agg.traces(), 1);
  EXPECT_EQ(agg.samples(), 1);
  EXPECT_EQ(agg.incomplete_traces(), 0);
  EXPECT_EQ(agg.EndToEnd().count, 1);
  EXPECT_EQ(agg.EndToEnd().sum, 10000);  // 10ms in us.

  // Exact tiling: root→filter 1ms, filter 2ms, filter-end→enqueue-end
  // 1ms, enqueue-end→deliver-start 2ms, deliver 1ms, deliver-end→apply
  // 1ms, apply 2ms.
  const std::vector<std::string> expected = {
      "ingest", "filter", "publish", "transport", "deliver", "holdback",
      "apply"};
  EXPECT_EQ(agg.StageNames(), expected);
  EXPECT_EQ(agg.StageSnapshot("ingest").sum, 1000);
  EXPECT_EQ(agg.StageSnapshot("filter").sum, 2000);
  EXPECT_EQ(agg.StageSnapshot("publish").sum, 1000);
  EXPECT_EQ(agg.StageSnapshot("transport").sum, 2000);
  EXPECT_EQ(agg.StageSnapshot("deliver").sum, 1000);
  EXPECT_EQ(agg.StageSnapshot("holdback").sum, 1000);
  EXPECT_EQ(agg.StageSnapshot("apply").sum, 2000);
  EXPECT_DOUBLE_EQ(agg.StageCoverage(), 1.0);

  // Critical path: transport ties with filter and apply at 2ms; the
  // top entry must be one of them with fraction 0.2.
  std::vector<CriticalPathEntry> path = agg.CriticalPath();
  ASSERT_EQ(path.size(), 7u);
  EXPECT_EQ(path[0].total_us, 2000);
  EXPECT_DOUBLE_EQ(path[0].fraction, 0.2);

  // The samples also landed in the registry histograms.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histograms.at("mdv.slo.end_to_end_us").count, 1);
  EXPECT_EQ(snap.histograms.at("mdv.slo.stage.transport_us").sum, 2000);
}

TEST(TraceAggregatorTest, MultipleAppliesPairWithTheirEnqueues) {
  // Two LMRs on one publish; lmr 9 receives two notifications (update
  // protocol). The k-th apply of lmr 9 pairs with its k-th enqueue.
  std::vector<SpanRecord> spans = {
      MakeSpan(3, 1, 0, "mdp.publish", 0, 20 * kMs),
      MakeSpan(3, 2, 1, "filter.run", 1 * kMs, 2 * kMs),
      MakeSpan(3, 3, 1, "net.enqueue", 2 * kMs, 3 * kMs, "8"),
      MakeSpan(3, 4, 1, "net.enqueue", 3 * kMs, 4 * kMs, "9"),
      MakeSpan(3, 5, 1, "net.enqueue", 4 * kMs, 5 * kMs, "9"),
      MakeSpan(3, 6, 1, "net.deliver", 6 * kMs, 7 * kMs, "8"),
      MakeSpan(3, 7, 1, "net.deliver", 7 * kMs, 8 * kMs, "9"),
      MakeSpan(3, 8, 1, "net.deliver", 8 * kMs, 9 * kMs, "9"),
      MakeSpan(3, 9, 1, "lmr.apply_notification", 7 * kMs, 8 * kMs, "8"),
      MakeSpan(3, 10, 1, "lmr.apply_notification", 9 * kMs, 10 * kMs, "9"),
      MakeSpan(3, 11, 1, "lmr.apply_notification", 11 * kMs, 12 * kMs, "9"),
  };
  MetricsRegistry registry;
  TraceAggregator agg(&registry);
  agg.Ingest(spans);
  EXPECT_EQ(agg.samples(), 3);  // One per apply.
  EXPECT_EQ(agg.EndToEnd().count, 3);
  EXPECT_DOUBLE_EQ(agg.StageCoverage(), 1.0);
}

TEST(TraceAggregatorTest, BrokenTracesAreFlaggedNotAggregated) {
  // Trace 5 lost its root to ring eviction; trace 6 has a dangling
  // parent link. Neither may contribute samples.
  std::vector<SpanRecord> spans = {
      MakeSpan(5, 2, 1, "filter.run", 0, kMs),
      MakeSpan(5, 3, 1, "lmr.apply_notification", 2 * kMs, 3 * kMs, "1"),
      MakeSpan(6, 1, 0, "mdp.publish", 0, 3 * kMs),
      MakeSpan(6, 3, 99, "lmr.apply_notification", 1 * kMs, 2 * kMs, "1"),
      MakeSpan(7, 1, 0, "mdp.publish", 0, 2 * kMs),
      MakeSpan(7, 2, 1, "lmr.apply_notification", 1 * kMs, 2 * kMs, "1"),
  };
  MetricsRegistry registry;
  TraceAggregator agg(&registry);
  agg.Ingest(spans, /*dropped_spans=*/4);
  EXPECT_EQ(agg.traces(), 3);
  EXPECT_EQ(agg.incomplete_traces(), 2);
  EXPECT_EQ(agg.samples(), 1);  // Only trace 7.
  EXPECT_EQ(agg.dropped_spans(), 4);
  std::string json = agg.SummaryJson();
  EXPECT_NE(json.find("\"incomplete_traces\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 4"), std::string::npos);
}

TEST(TraceAggregatorTest, SummaryJsonHasTheScenarioKeys) {
  std::vector<SpanRecord> spans = {
      MakeSpan(1, 1, 0, "mdp.publish", 0, 10 * kMs),
      MakeSpan(1, 2, 1, "filter.run", 1 * kMs, 3 * kMs),
      MakeSpan(1, 3, 1, "net.enqueue", 4 * kMs, 5 * kMs, "7"),
      MakeSpan(1, 4, 1, "net.deliver", 6 * kMs, 7 * kMs, "7"),
      MakeSpan(1, 5, 1, "lmr.apply_notification", 8 * kMs, 10 * kMs, "7"),
  };
  MetricsRegistry registry;
  TraceAggregator agg(&registry);
  agg.Ingest(spans);
  std::string json = agg.SummaryJson();
  for (const char* key :
       {"\"end_to_end_samples\": 1", "\"attributed_stages\": 7",
        "\"stage_coverage\": 1.0000", "\"end_to_end_us\"", "\"p50\"",
        "\"p99\"", "\"stages\"", "\"critical_path\"", "\"transport\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

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

TEST(TraceAggregatorTest, LiveSystemRunAggregatesCleanly) {
  MdvSystem system(rdf::MakeObjectGlobeSchema());
  MetadataProvider* provider = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(provider);
  ASSERT_TRUE(lmr->Subscribe("search CycleProvider c register c "
                             "where c.serverInformation.memory > 64")
                  .ok());
  DefaultTracer().Clear();
  ASSERT_TRUE(provider->RegisterDocument(MakeProviderDoc("d.rdf")).ok());

  MetricsRegistry registry;
  TraceAggregator agg(&registry);
  agg.IngestTracer(DefaultTracer());

  EXPECT_EQ(agg.incomplete_traces(), 0);
  ASSERT_GE(agg.samples(), 1);
  EXPECT_GE(agg.EndToEnd().count, 1);
  // Real sub-millisecond runs can truncate tiny stages to zero, but the
  // filter and apply work must be visible and the tiling near-complete.
  std::vector<std::string> stages = agg.StageNames();
  EXPECT_FALSE(stages.empty());
  EXPECT_NE(std::find(stages.begin(), stages.end(), "filter"), stages.end());
  EXPECT_GT(agg.StageCoverage(), 0.5);
  EXPECT_LE(agg.StageCoverage(), 1.0);
}

}  // namespace
}  // namespace mdv::obs
