#include "perfbench/trace_math.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace mdv::perfbench {

namespace {

const std::string* Attr(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

double HighestReportablePercentile(size_t samples) {
  const double n = static_cast<double>(samples);
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    // Samples strictly above the p-th percentile: n * (1 - p/100).
    if (n * (100.0 - p) / 100.0 >= 10.0 - 1e-9) best = p;
  }
  return best;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t ClippedUnionLength(std::vector<Interval> intervals, int64_t lo,
                           int64_t hi) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

SpanTree::SpanTree(std::vector<obs::SpanRecord> spans)
    : spans_(std::move(spans)),
      parent_(spans_.size(), -1),
      children_(spans_.size()),
      extent_(spans_.size()),
      own_ns_(spans_.size(), 0) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].span_id] = i;
  bool complete = true;
  int roots = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent_id == 0) {
      ++roots;
      root_ = static_cast<int>(i);
      continue;
    }
    auto it = by_id.find(spans_[i].parent_id);
    if (it == by_id.end()) {
      complete = false;
    } else {
      parent_[i] = static_cast<int>(it->second);
    }
  }
  if (roots != 1 || !complete) root_ = -1;

  // Apply runs inside the delivery that handed the frame over.
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != "lmr.apply_notification") continue;
    const std::string* lmr = Attr(spans_[i], "lmr");
    int best = -1;
    for (size_t d = 0; d < spans_.size(); ++d) {
      const obs::SpanRecord& cand = spans_[d];
      if (cand.name != "net.deliver" || cand.start_ns > spans_[i].start_ns ||
          cand.end_ns < spans_[i].end_ns) {
        continue;
      }
      const std::string* cand_lmr = Attr(cand, "lmr");
      if (lmr == nullptr || cand_lmr == nullptr || *lmr != *cand_lmr) continue;
      if (best < 0 || cand.end_ns - cand.start_ns <
                          spans_[best].end_ns - spans_[best].start_ns) {
        best = static_cast<int>(d);
      }
    }
    if (best >= 0) parent_[i] = best;
  }

  for (size_t i = 0; i < spans_.size(); ++i) {
    if (parent_[i] >= 0) children_[parent_[i]].push_back(i);
  }

  // Extents bottom-up: order spans by depth, deepest first. A parent
  // cycle (only possible with colliding ids) leaves depth unbounded, so
  // depth is capped at the span count.
  std::vector<size_t> depth(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    size_t d = 0;
    for (int p = parent_[i]; p >= 0 && d <= spans_.size(); p = parent_[p]) ++d;
    depth[i] = d;
  }
  std::vector<size_t> order(spans_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return depth[a] > depth[b]; });
  for (size_t i : order) {
    extent_[i] = Interval{spans_[i].start_ns, spans_[i].end_ns};
    std::vector<Interval> child_extents;
    for (size_t c : children_[i]) {
      extent_[i].start = std::min(extent_[i].start, extent_[c].start);
      extent_[i].end = std::max(extent_[i].end, extent_[c].end);
      child_extents.push_back(extent_[c]);
    }
    own_ns_[i] = (spans_[i].end_ns - spans_[i].start_ns) -
                 ClippedUnionLength(std::move(child_extents),
                                    spans_[i].start_ns, spans_[i].end_ns);
  }
}

double SpanTree::RootCoverage() const {
  if (root_ < 0) return 0;
  const obs::SpanRecord& r = spans_[root_];
  const int64_t duration = r.end_ns - r.start_ns;
  if (duration <= 0) return 1;
  std::vector<Interval> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (static_cast<int>(i) != root_) {
      layers.push_back(Interval{spans_[i].start_ns, spans_[i].end_ns});
    }
  }
  return static_cast<double>(
             ClippedUnionLength(std::move(layers), r.start_ns, r.end_ns)) /
         static_cast<double>(duration);
}

std::map<std::string, int64_t> OwnNsByName(const SpanTree& tree) {
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < tree.spans().size(); ++i) {
    out[tree.spans()[i].name] += tree.OwnNs(i);
  }
  return out;
}

std::map<uint64_t, std::vector<obs::SpanRecord>> GroupByTrace(
    std::vector<obs::SpanRecord> spans) {
  std::map<uint64_t, std::vector<obs::SpanRecord>> out;
  for (obs::SpanRecord& span : spans) {
    out[span.trace_id].push_back(std::move(span));
  }
  return out;
}

}  // namespace mdv::perfbench
