#include "perfbench/trace_math.h"

#include <gtest/gtest.h>

namespace mdv::perfbench {
namespace {

obs::SpanRecord Span(uint64_t id, uint64_t parent, std::string name,
                     int64_t start, int64_t end,
                     std::vector<std::pair<std::string, std::string>> attrs =
                         {}) {
  obs::SpanRecord s;
  s.trace_id = 1;
  s.span_id = id;
  s.parent_id = parent;
  s.name = std::move(name);
  s.start_ns = start;
  s.end_ns = end;
  s.attributes = std::move(attrs);
  return s;
}

TEST(PercentileRuleTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestReportablePercentile(0), 0);
  EXPECT_EQ(HighestReportablePercentile(19), 0);
  EXPECT_EQ(HighestReportablePercentile(20), 50);
  EXPECT_EQ(HighestReportablePercentile(99), 50);
  EXPECT_EQ(HighestReportablePercentile(100), 90);
  EXPECT_EQ(HighestReportablePercentile(999), 90);
  EXPECT_EQ(HighestReportablePercentile(1000), 99);
  EXPECT_EQ(HighestReportablePercentile(9999), 99);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
}

TEST(PercentileRuleTest, InterpolatesBetweenClosestRanks) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 50), 2.5);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 90), 90.1);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 100), 100);
}

TEST(ClippedUnionTest, MergesOverlapsAndClips) {
  EXPECT_EQ(ClippedUnionLength({}, 0, 100), 0);
  EXPECT_EQ(ClippedUnionLength({{10, 20}, {15, 30}, {50, 60}}, 0, 100), 30);
  EXPECT_EQ(ClippedUnionLength({{-10, 20}, {90, 150}}, 0, 100), 30);
  EXPECT_EQ(ClippedUnionLength({{200, 300}}, 0, 100), 0);
}

// A parent whose cross-thread child outlives it: unclipped subtraction
// would give 100 - 30 - 120 = -50 ns of own time.
TEST(SpanTreeTest, OwnTimeClipsChildOutlivingParent) {
  SpanTree tree({Span(1, 0, "op.publish", 0, 200),
                 Span(2, 1, "mdp.publish", 0, 100),
                 Span(3, 2, "filter.run", 10, 40),
                 Span(4, 2, "net.enqueue", 30, 150)});
  ASSERT_EQ(tree.root(), 0);
  EXPECT_EQ(tree.OwnNs(2), 30);   // filter.run: leaf.
  EXPECT_EQ(tree.OwnNs(3), 120);  // net.enqueue: leaf.
  EXPECT_EQ(tree.OwnNs(1), 10);   // 100 - |[10,100)|.
  // The root's child extent reaches 150, past mdp.publish's end.
  EXPECT_EQ(tree.OwnNs(0), 50);
  EXPECT_DOUBLE_EQ(tree.RootCoverage(), 0.75);  // [0,150) of [0,200).
  for (size_t i = 0; i < tree.spans().size(); ++i) {
    EXPECT_GE(tree.OwnNs(i), 0) << tree.spans()[i].name;
  }
}

TEST(SpanTreeTest, ApplyIsReparentedUnderItsDelivery) {
  SpanTree tree(
      {Span(1, 0, "op.publish", 0, 100),
       Span(2, 1, "mdp.publish", 0, 40),
       Span(3, 2, "net.deliver", 50, 90, {{"lmr", "1"}}),
       Span(4, 2, "net.deliver", 50, 95, {{"lmr", "2"}}),
       Span(5, 2, "lmr.apply_notification", 60, 80, {{"lmr", "1"}})});
  std::map<std::string, int64_t> own = OwnNsByName(tree);
  EXPECT_EQ(own["lmr.apply_notification"], 20);
  // Delivery to LMR 1 excludes its apply; LMR 2's delivery does not.
  EXPECT_EQ(own["net.deliver"], (40 - 20) + 45);
  EXPECT_EQ(tree.OwnNs(0), 5);  // Outside the child extent [0,95).
  EXPECT_DOUBLE_EQ(tree.RootCoverage(), 0.85);  // [40,50) runs no layer.
}

TEST(SpanTreeTest, BrokenTreeHasNoRoot) {
  EXPECT_EQ(SpanTree({Span(1, 0, "a", 0, 1), Span(2, 0, "b", 0, 1)}).root(),
            -1);
  EXPECT_EQ(SpanTree({Span(1, 0, "a", 0, 1), Span(2, 9, "b", 0, 1)}).root(),
            -1);
  EXPECT_EQ(SpanTree({}).RootCoverage(), 0);
}

// Coverage of an operation by its layers: the share of its wall time in
// which some layer span runs. The wait between mdp.update's end and the
// delivery is inside the root's child extent but in no layer.
TEST(SpanTreeTest, CoverageCountsOnlyTimeSomeLayerRuns) {
  SpanTree tree({Span(1, 0, "op.update", 0, 1000),
                 Span(2, 1, "mdp.update", 0, 600),
                 Span(3, 2, "filter.run", 100, 300),
                 Span(4, 2, "net.deliver", 650, 850, {{"lmr", "3"}}),
                 Span(5, 1, "rdf.parse", 900, 950)});
  EXPECT_EQ(tree.OwnNs(0), 100);
  EXPECT_DOUBLE_EQ(tree.RootCoverage(), 0.85);
  int64_t layers = 0;
  for (size_t i = 1; i < tree.spans().size(); ++i) layers += tree.OwnNs(i);
  // Without overlap between layers, own times tile the covered part.
  EXPECT_EQ(layers, 850);
}

TEST(GroupByTraceTest, SplitsByTraceId) {
  obs::SpanRecord a = Span(1, 0, "a", 0, 1);
  obs::SpanRecord b = Span(2, 0, "b", 0, 1);
  b.trace_id = 7;
  auto groups = GroupByTrace({a, b, a});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[1].size(), 2u);
  EXPECT_EQ(groups[7].size(), 1u);
}

}  // namespace
}  // namespace mdv::perfbench
