// Statistics and span arithmetic for the MDV end-to-end benchmark:
// the percentile rule for reported timings, own ("self") time of spans
// whose children may run on other threads and outlive them, and the
// share of an operation's wall time its layers account for.

#ifndef MDV_PERFBENCH_TRACE_MATH_H_
#define MDV_PERFBENCH_TRACE_MATH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace mdv::perfbench {

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least
/// ten of `samples` beyond it (p90 needs 100 samples, p99 needs 1,000).
/// Returns 0 when even the median has fewer than ten samples beyond it.
double HighestReportablePercentile(size_t samples);

/// The `p`-th percentile (0..100) of `values` by linear interpolation
/// between closest ranks; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the union of `intervals`, each clipped to [lo, hi).
int64_t ClippedUnionLength(std::vector<Interval> intervals, int64_t lo,
                           int64_t hi);

/// One trace's span tree with each span's own time: its duration minus
/// the union of its children's extents (a child's extent covers its
/// whole subtree), clipped to the span's own interval. A child on a
/// transport thread that outlives its parent therefore never drives the
/// parent's own time below zero, and work a subtree does after its
/// parent ended still counts against the trace root.
///
/// The program parents `lmr.apply_notification` to the notification's
/// trace context rather than to the `net.deliver` span it runs inside;
/// the tree re-parents each apply under the tightest `net.deliver` of
/// the same LMR that contains it in time, so delivery's own time
/// excludes the apply.
class SpanTree {
 public:
  explicit SpanTree(std::vector<obs::SpanRecord> spans);

  const std::vector<obs::SpanRecord>& spans() const { return spans_; }

  /// Index of the root span (parent 0), or -1 if there is none or more
  /// than one, or if some parent link does not resolve.
  int root() const { return root_; }

  /// Own time of span `i` in nanoseconds.
  int64_t OwnNs(size_t i) const { return own_ns_[i]; }

  /// Share (0..1) of the root's interval in which at least one other
  /// span of the trace runs: the part of the operation its layers
  /// account for. Waits between layers (a frame queued for transport)
  /// are not covered even when they fall inside a child's extent.
  double RootCoverage() const;

 private:
  std::vector<obs::SpanRecord> spans_;
  std::vector<int> parent_;
  std::vector<std::vector<size_t>> children_;
  std::vector<Interval> extent_;
  std::vector<int64_t> own_ns_;
  int root_ = -1;
};

/// Own time summed per span name over one trace.
std::map<std::string, int64_t> OwnNsByName(const SpanTree& tree);

/// Groups spans by trace id.
std::map<uint64_t, std::vector<obs::SpanRecord>> GroupByTrace(
    std::vector<obs::SpanRecord> spans);

}  // namespace mdv::perfbench

#endif  // MDV_PERFBENCH_TRACE_MATH_H_
