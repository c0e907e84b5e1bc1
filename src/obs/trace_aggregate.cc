#include "obs/trace_aggregate.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace mdv::obs {

namespace {

/// The canonical pipeline order; also the display order of StageNames().
const char* const kStageOrder[] = {"ingest",    "filter",  "publish",
                                   "transport", "deliver", "holdback",
                                   "apply"};

const std::string* Attr(const SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string LmrOf(const SpanRecord& span) {
  const std::string* v = Attr(span, "lmr");
  return v != nullptr ? *v : std::string();
}

bool IsFilterSpan(const SpanRecord& span) {
  return span.name == "filter.run" || span.name == "filter.evaluate_new_rules";
}

std::string FormatFraction(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

std::string FormatUs(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

TraceAggregator::TraceAggregator(MetricsRegistry* registry)
    : registry_(registry),
      end_to_end_(&registry->GetHistogram(
          "mdv.slo.end_to_end_us", Histogram::ExponentialBuckets(1, 1e7))) {}

void TraceAggregator::Ingest(const std::vector<SpanRecord>& spans,
                             int64_t dropped_spans) {
  dropped_spans_ += dropped_spans;
  std::map<uint64_t, std::vector<const SpanRecord*>> traces;
  for (const SpanRecord& span : spans) {
    traces[span.trace_id].push_back(&span);
  }
  for (const auto& [trace_id, trace_spans] : traces) {
    ++traces_;
    // Structural completeness: exactly the root has parent 0, and every
    // parent link resolves within the trace. Ring eviction breaks one
    // of the two, and a broken trace would yield skewed latencies.
    std::unordered_set<uint64_t> ids;
    const SpanRecord* root = nullptr;
    for (const SpanRecord* span : trace_spans) ids.insert(span->span_id);
    bool complete = true;
    for (const SpanRecord* span : trace_spans) {
      if (span->parent_id == 0) {
        if (root != nullptr) complete = false;  // Two roots: id collision.
        root = span;
      } else if (ids.count(span->parent_id) == 0) {
        complete = false;
      }
    }
    if (root == nullptr || !complete) {
      ++incomplete_traces_;
      continue;
    }
    AggregateTrace(trace_spans);
  }
}

void TraceAggregator::AggregateTrace(
    const std::vector<const SpanRecord*>& spans) {
  const SpanRecord* root = nullptr;
  std::vector<const SpanRecord*> applies;
  std::vector<const SpanRecord*> filters;
  std::unordered_map<std::string, std::vector<const SpanRecord*>> enqueues;
  std::unordered_map<std::string, std::vector<const SpanRecord*>> delivers;
  for (const SpanRecord* span : spans) {
    if (span->parent_id == 0) root = span;
    if (span->name == "lmr.apply_notification") applies.push_back(span);
    if (IsFilterSpan(*span)) filters.push_back(span);
    if (span->name == "net.enqueue") enqueues[LmrOf(*span)].push_back(span);
    if (span->name == "net.deliver") delivers[LmrOf(*span)].push_back(span);
  }
  const auto by_start = [](const SpanRecord* a, const SpanRecord* b) {
    return a->start_ns < b->start_ns;
  };
  std::sort(applies.begin(), applies.end(), by_start);
  std::sort(filters.begin(), filters.end(), by_start);
  for (auto& [lmr, list] : enqueues) std::sort(list.begin(), list.end(), by_start);
  for (auto& [lmr, list] : delivers) std::sort(list.begin(), list.end(), by_start);

  std::unordered_map<std::string, size_t> apply_index;  // Per-lmr ordinal.
  for (const SpanRecord* apply : applies) {
    const std::string lmr = LmrOf(*apply);
    const size_t k = apply_index[lmr]++;

    // The k-th apply of an LMR pairs with its k-th enqueue; the update
    // protocol can send several notifications per publish to one LMR.
    const SpanRecord* enqueue = nullptr;
    auto eq = enqueues.find(lmr);
    if (eq != enqueues.end() && !eq->second.empty()) {
      enqueue = eq->second[std::min(k, eq->second.size() - 1)];
    }

    // The deliver that handed this apply over: the frame's own
    // net.deliver span ended before the apply started (later than that
    // only if the link held the frame back).
    const SpanRecord* deliver = nullptr;
    auto dq = delivers.find(lmr);
    if (dq != delivers.end()) {
      for (const SpanRecord* d : dq->second) {
        if (d->end_ns <= apply->start_ns) deliver = d;  // Latest such.
      }
      if (deliver == nullptr && !dq->second.empty()) deliver = dq->second[0];
    }

    // Anchor points tiling root.start .. apply.end. The filter window
    // only counts runs that ended before this apply's send anchor, so
    // a replicating peer's later filter run doesn't absorb the client
    // MDP's publish time.
    const int64_t send_ns = enqueue != nullptr  ? enqueue->start_ns
                            : deliver != nullptr ? deliver->start_ns
                                                 : apply->start_ns;
    int64_t t1 = root->start_ns;
    int64_t t2 = root->start_ns;
    bool have_filter = false;
    for (const SpanRecord* f : filters) {
      if (f->end_ns > send_ns) continue;
      if (!have_filter) {
        t1 = f->start_ns;
        t2 = f->end_ns;
        have_filter = true;
      } else {
        t1 = std::min(t1, f->start_ns);
        t2 = std::max(t2, f->end_ns);
      }
    }

    int64_t t3;  // End of the publish stage.
    int64_t t4;  // Transport done, deliver begins.
    int64_t t4e;  // Deliver span done, holdback begins.
    if (enqueue != nullptr) {
      t3 = enqueue->end_ns;
      t4 = deliver != nullptr ? deliver->start_ns : apply->start_ns;
      t4e = deliver != nullptr ? deliver->end_ns : apply->start_ns;
    } else if (deliver != nullptr) {
      t3 = deliver->start_ns;
      t4 = deliver->start_ns;
      t4e = deliver->end_ns;
    } else {
      t3 = t4 = t4e = apply->start_ns;
    }

    int64_t anchors[] = {root->start_ns, t1, t2,  t3,
                         t4,             t4e, apply->start_ns, apply->end_ns};
    constexpr size_t kAnchors = sizeof(anchors) / sizeof(anchors[0]);
    for (size_t i = 1; i < kAnchors; ++i) {
      anchors[i] = std::max(anchors[i], anchors[i - 1]);  // Monotone tiling.
    }

    const int64_t end_to_end_us = (anchors[kAnchors - 1] - anchors[0]) / 1000;
    end_to_end_->Record(end_to_end_us);
    end_to_end_total_us_ += end_to_end_us;
    ++samples_;
    for (size_t i = 1; i < kAnchors; ++i) {
      const int64_t value_us = (anchors[i] - anchors[i - 1]) / 1000;
      if (value_us > 0) RecordStage(kStageOrder[i - 1], value_us);
    }
  }
}

void TraceAggregator::RecordStage(const std::string& stage, int64_t value_us) {
  auto it = stages_.find(stage);
  if (it == stages_.end()) {
    StageAgg agg;
    agg.histogram = &registry_->GetHistogram(
        "mdv.slo.stage." + stage + "_us", Histogram::ExponentialBuckets(1, 1e7));
    it = stages_.emplace(stage, agg).first;
  }
  it->second.count += 1;
  it->second.total_us += value_us;
  it->second.histogram->Record(value_us);
}

HistogramSnapshot TraceAggregator::EndToEnd() const {
  return end_to_end_->GetSnapshot();
}

std::vector<std::string> TraceAggregator::StageNames() const {
  std::vector<std::string> out;
  for (const char* stage : kStageOrder) {
    auto it = stages_.find(stage);
    if (it != stages_.end() && it->second.count > 0) out.push_back(stage);
  }
  return out;
}

HistogramSnapshot TraceAggregator::StageSnapshot(
    const std::string& stage) const {
  auto it = stages_.find(stage);
  return it == stages_.end() ? HistogramSnapshot{}
                             : it->second.histogram->GetSnapshot();
}

std::vector<CriticalPathEntry> TraceAggregator::CriticalPath() const {
  std::vector<CriticalPathEntry> out;
  for (const auto& [stage, agg] : stages_) {
    if (agg.count == 0) continue;
    CriticalPathEntry entry;
    entry.stage = stage;
    entry.total_us = agg.total_us;
    entry.fraction = end_to_end_total_us_ > 0
                         ? static_cast<double>(agg.total_us) /
                               static_cast<double>(end_to_end_total_us_)
                         : 0.0;
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const CriticalPathEntry& a, const CriticalPathEntry& b) {
              return a.total_us > b.total_us;
            });
  return out;
}

double TraceAggregator::StageCoverage() const {
  if (end_to_end_total_us_ <= 0) return 0.0;
  int64_t attributed = 0;
  for (const auto& [stage, agg] : stages_) attributed += agg.total_us;
  return static_cast<double>(attributed) /
         static_cast<double>(end_to_end_total_us_);
}

std::string TraceAggregator::SummaryJson() const {
  std::ostringstream out;
  const HistogramSnapshot e2e = EndToEnd();
  out << "{\n  \"traces\": " << traces_
      << ",\n  \"end_to_end_samples\": " << samples_
      << ",\n  \"incomplete_traces\": " << incomplete_traces_
      << ",\n  \"dropped_spans\": " << dropped_spans_
      << ",\n  \"attributed_stages\": " << StageNames().size()
      << ",\n  \"stage_coverage\": " << FormatFraction(StageCoverage())
      << ",\n  \"end_to_end_us\": {\"count\": " << e2e.count
      << ", \"sum\": " << e2e.sum << ", \"p50\": " << FormatUs(e2e.Percentile(50))
      << ", \"p95\": " << FormatUs(e2e.Percentile(95))
      << ", \"p99\": " << FormatUs(e2e.Percentile(99))
      << "},\n  \"stages\": {";
  bool first = true;
  for (const std::string& stage : StageNames()) {
    const StageAgg& agg = stages_.at(stage);
    const HistogramSnapshot snap = agg.histogram->GetSnapshot();
    out << (first ? "\n" : ",\n") << "    \"" << stage
        << "\": {\"count\": " << agg.count << ", \"total_us\": " << agg.total_us
        << ", \"fraction\": "
        << FormatFraction(end_to_end_total_us_ > 0
                              ? static_cast<double>(agg.total_us) /
                                    static_cast<double>(end_to_end_total_us_)
                              : 0.0)
        << ", \"p50\": " << FormatUs(snap.Percentile(50))
        << ", \"p99\": " << FormatUs(snap.Percentile(99)) << "}";
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"critical_path\": [";
  first = true;
  for (const CriticalPathEntry& entry : CriticalPath()) {
    out << (first ? "\n" : ",\n") << "    {\"stage\": \"" << entry.stage
        << "\", \"total_us\": " << entry.total_us
        << ", \"fraction\": " << FormatFraction(entry.fraction) << "}";
    first = false;
  }
  out << (first ? "]" : "\n  ]") << "\n}";
  return out.str();
}

}  // namespace mdv::obs
