#ifndef MDV_OBS_TRACE_AGGREGATE_H_
#define MDV_OBS_TRACE_AGGREGATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdv::obs {

/// One stage of the critical-path breakdown, ordered by attributed time.
struct CriticalPathEntry {
  std::string stage;
  int64_t total_us = 0;
  double fraction = 0.0;  ///< Of the summed end-to-end time.
};

/// Assembles retained SpanRecords into per-trace trees and derives SLO
/// latencies from them: one *sample* per `lmr.apply_notification` span,
/// measuring end-to-end publish→apply time from the trace root and
/// attributing it to pipeline stages by tiling the timeline between
/// anchor spans of the same trace (matched to the apply by their `lmr`
/// attribute):
///
///   ingest     trace root start → first filter span start
///   filter     filter span window (filter.run / evaluate_new_rules)
///   publish    filter end → net.enqueue end: fan-out + encode
///   transport  enqueue end → net.deliver start (queueing + wire)
///   deliver    the net.deliver span itself
///   holdback   deliver end → apply start (reliable-link reordering)
///   apply      the lmr.apply_notification span
///
/// Anchors are clamped monotone, so the stages tile the end-to-end
/// interval exactly and CriticalPath() fractions are trustworthy.
/// Traces with a missing root or dangling parent links (ring-buffer
/// eviction) are flagged incomplete and excluded from every latency
/// figure rather than reported skewed.
///
/// Samples land in histograms of the given registry —
/// `mdv.slo.end_to_end_us` and `mdv.slo.stage.<stage>_us`, log-scale
/// 1us..10s buckets — so the results export through the normal metrics
/// surface (JSON / Prometheus) as well as through SummaryJson().
///
/// Feed each span batch exactly once (spans are not deduplicated across
/// Ingest calls). Not thread-safe; aggregate after the run quiesces.
class TraceAggregator {
 public:
  explicit TraceAggregator(MetricsRegistry* registry = &DefaultMetrics());

  /// Groups `spans` by trace id and records every derivable sample.
  /// `dropped_spans` is the producing tracer's eviction count; it only
  /// annotates the result (incompleteness is detected structurally).
  void Ingest(const std::vector<SpanRecord>& spans, int64_t dropped_spans = 0);

  void IngestTracer(const Tracer& tracer) {
    Ingest(tracer.Snapshot(), tracer.dropped());
  }

  int64_t traces() const { return traces_; }
  int64_t samples() const { return samples_; }
  int64_t incomplete_traces() const { return incomplete_traces_; }
  int64_t dropped_spans() const { return dropped_spans_; }

  HistogramSnapshot EndToEnd() const;

  /// Stages that received at least one sample, attribution order.
  std::vector<std::string> StageNames() const;
  HistogramSnapshot StageSnapshot(const std::string& stage) const;

  /// Stages sorted by total attributed time, largest first.
  std::vector<CriticalPathEntry> CriticalPath() const;

  /// Fraction of the summed end-to-end time attributed to stages
  /// (1.0 when every sample tiles cleanly; <1 only on clock anomalies).
  double StageCoverage() const;

  /// The whole aggregate as one JSON object: sample counts, end-to-end
  /// and per-stage percentiles, critical path, coverage.
  std::string SummaryJson() const;

 private:
  struct StageAgg {
    int64_t count = 0;
    int64_t total_us = 0;
    Histogram* histogram = nullptr;  // Owned by registry_.
  };

  /// Derives and records the samples of one complete trace.
  void AggregateTrace(const std::vector<const SpanRecord*>& spans);

  void RecordStage(const std::string& stage, int64_t value_us);

  MetricsRegistry* registry_;
  Histogram* end_to_end_;  // mdv.slo.end_to_end_us, owned by registry_.
  std::map<std::string, StageAgg> stages_;
  int64_t traces_ = 0;
  int64_t samples_ = 0;
  int64_t incomplete_traces_ = 0;
  int64_t dropped_spans_ = 0;
  int64_t end_to_end_total_us_ = 0;
};

}  // namespace mdv::obs

#endif  // MDV_OBS_TRACE_AGGREGATE_H_
