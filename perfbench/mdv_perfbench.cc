// End-to-end benchmark of an MDV deployment driven only through its
// public API: two meshed, durable MDPs with a sharded parallel filter,
// durable LMRs, and the asynchronous reliable transport. Every
// operation is timed from the call until Network::WaitQuiescent()
// returns, i.e. until its notifications are applied at every LMR.
//
//   mdv_perfbench --workload subscribe|publish|churn --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//
// After a short warm-up, a run repeats identical cycles (all inputs
// derive from the seed) until the next cycle would overrun S seconds.
// One cycle:
//   1. set-up: open the deployment under DIR, register the workload's
//      set-up rules and documents; done kSetups times, all but the last
//      deployment dropped again                           -> setup_s
//   2. 100 steps mixing Subscribe, RegisterDocumentXml, UpdateDocument,
//      DeleteDocument and Query; the workload decides which sizes grow
//   3. a back-to-back burst of RegisterDocumentXml  -> publish_docs_per_s
//   4. the correctness gate, then a crash without checkpoint and the
//      re-adding of every node from its WAL                -> recover_s
// With --trace 1, cycles alternate traced and untraced; the traced ones
// wrap each public call in a span and yield the per-layer metrics, and
// the difference between the two kinds is the tracing overhead.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/workload.h"
#include "mdv/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_aggregate.h"
#include "perfbench/trace_math.h"
#include "rdf/parser.h"
#include "rdf/schema.h"
#include "rdf/writer.h"
#include "rules/compiler.h"
#include "rules/lint.h"

namespace mdv::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using bench_support::BenchRuleType;
using bench_support::WorkloadGenerator;

constexpr size_t kMdps = 2;
constexpr int kShards = 4;
constexpr int kWorkers = 2;
constexpr size_t kSteps = 100;
// Set-ups per cycle. Set-up is short, so each cycle repeats it to give
// setup_s a median over many samples.
constexpr int kSetups = 4;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Inputs ------------------------------------------------------------

enum Op { kSubscribe, kPublish, kUpdate, kDelete, kQuery, kRecover, kOps };
const char* const kOpNames[kOps] = {"subscribe", "publish", "update",
                                    "delete",    "query",   "recover"};

struct RuleInput {
  size_t lmr = 0;
  std::string text;
};

struct DocInput {
  std::string uri;
  std::string xml;
};

struct StepInput {
  std::vector<RuleInput> grow_rules;  // Subscribed and kept.
  std::vector<DocInput> grow_docs;    // Registered and kept.
  DocInput new_doc;                   // Registered every step.
  rdf::RdfDocument update_doc;        // New version of a live document.
  std::string delete_uri;
  size_t query_lmr = 0;
  std::string query;
  std::optional<RuleInput> probe_rule;  // Subscribed, then unsubscribed.
};

struct Inputs {
  size_t lmrs = 4;
  wal::FsyncPolicy fsync = wal::FsyncPolicy::kNone;
  std::vector<RuleInput> setup_rules;
  std::vector<rdf::RdfDocument> preload;
  std::vector<StepInput> steps;
  std::vector<DocInput> burst;
};

/// Document `j` of the §4 generator, optionally with another memory
/// size or server port.
rdf::RdfDocument MakeDoc(size_t j, std::optional<int64_t> memory = {},
                         std::optional<int64_t> port = {}) {
  WorkloadGenerator gen({});
  rdf::RdfDocument doc = gen.MakeDocument(j);
  if (memory.has_value()) {
    doc.FindMutableResource("info")->SetProperty(
        "memory", rdf::PropertyValue::Literal(std::to_string(*memory)));
  }
  if (port.has_value()) {
    doc.FindMutableResource("host")->SetProperty(
        "serverPort", rdf::PropertyValue::Literal(std::to_string(*port)));
  }
  return doc;
}

DocInput AsInput(const rdf::RdfDocument& doc) {
  return DocInput{doc.uri(), rdf::WriteRdfXml(doc)};
}

std::string SelectiveRule(size_t k, size_t index) {
  static const BenchRuleType kTypes[] = {BenchRuleType::kPath,
                                         BenchRuleType::kJoin,
                                         BenchRuleType::kOid};
  WorkloadGenerator::Options options;
  options.rule_type = kTypes[k % 3];
  return WorkloadGenerator(options).RuleText(index);
}

std::string MemoryRule(int64_t threshold) {
  return "search CycleProvider c register c where "
         "c.serverInformation.memory > " +
         std::to_string(threshold);
}

// The generator's documents carry memory 1000000 + j.
constexpr int64_t kMemoryBase = 1000000;

int64_t Uniform(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

/// `n` values in [0, 1), one in each stratum [i/n, (i+1)/n), at a seeded
/// offset within it and, if `shuffle`, in seeded order. The seed changes
/// which step gets which value but barely the set of values, so costs
/// that depend on them (query selectivity, rule fan-out) vary little
/// from seed to seed.
std::vector<double> Stratified(size_t n, std::mt19937_64& rng, bool shuffle) {
  std::vector<double> out(n);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  for (size_t i = 0; i < n; ++i) {
    out[i] = (static_cast<double>(i) + jitter(rng)) / static_cast<double>(n);
  }
  if (shuffle) std::shuffle(out.begin(), out.end(), rng);
  return out;
}

int64_t Scale(double fraction, int64_t range) {
  return static_cast<int64_t>(fraction * static_cast<double>(range));
}

/// `subscribe`: the rule base grows from empty to 800 selective rules
/// (PATH/JOIN/OID round-robin over 4 LMRs) over a fixed store of 300
/// documents. Each step subscribes 8 rules, then registers, updates and
/// deletes one document and queries one LMR. The rule base and each
/// rule's LMR are the same for every seed; the seed sets the order in
/// which the rules arrive, with 3 of every step's 8 selecting a stored
/// document. The step updates one of those 3, so every update changes a
/// cached resource; the registered document matches no rule.
Inputs SubscribeInputs(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Inputs in;
  in.lmrs = 4;
  const size_t kStore = 300;
  const size_t kRules = 8 * kSteps;
  const size_t kStoredPerStep = kStore / kSteps;
  for (size_t j = 0; j < kStore; ++j) in.preload.push_back(MakeDoc(j));
  // Rule j selects document j: rules below kStore select stored ones.
  std::vector<size_t> stored(kStore);
  std::vector<size_t> unstored(kRules - kStore);
  for (size_t j = 0; j < kRules; ++j) {
    (j < kStore ? stored[j] : unstored[j - kStore]) = j;
  }
  std::shuffle(stored.begin(), stored.end(), rng);
  std::shuffle(unstored.begin(), unstored.end(), rng);
  const std::vector<double> queries = Stratified(kSteps, rng, true);
  const size_t lmr_offset = static_cast<size_t>(Uniform(rng, 0, in.lmrs - 1));
  for (size_t s = 0; s < kSteps; ++s) {
    StepInput step;
    std::vector<size_t> rules(stored.begin() + s * kStoredPerStep,
                              stored.begin() + (s + 1) * kStoredPerStep);
    const size_t per_step = kRules / kSteps - kStoredPerStep;
    rules.insert(rules.end(), unstored.begin() + s * per_step,
                 unstored.begin() + (s + 1) * per_step);
    const size_t updated = rules[Uniform(rng, 0, kStoredPerStep - 1)];
    std::shuffle(rules.begin(), rules.end(), rng);
    for (size_t j : rules) {
      step.grow_rules.push_back(RuleInput{j % in.lmrs, SelectiveRule(j, j)});
    }
    const rdf::RdfDocument fresh = MakeDoc(kRules + 100 + s);
    step.new_doc = AsInput(fresh);
    step.update_doc = MakeDoc(updated, {}, Uniform(rng, 5000, 5999));
    step.delete_uri = fresh.uri();
    step.query_lmr = (s + lmr_offset) % in.lmrs;
    step.query = MemoryRule(kMemoryBase + Scale(queries[s], kStore));
    in.steps.push_back(std::move(step));
  }
  for (size_t j = 0; j < 100; ++j) {
    in.burst.push_back(AsInput(MakeDoc(kRules + j)));
  }
  return in;
}

/// `publish`: the store grows fourfold, from 100 to 400 documents, under
/// a fixed rule base of 200 selective rules spread over the document
/// range plus one serverPort band per LMR (the bands partition the
/// ports, so every document crosses the transport to exactly one LMR).
/// Each step registers 2 documents that stay plus one that is deleted
/// again, updates a live one, queries one LMR and subscribes (then
/// unsubscribes) one selective rule. A 100-document burst ends the cycle.
/// The rule base is the same for every seed: rule k selects document 2k.
Inputs PublishInputs(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Inputs in;
  in.lmrs = 4;
  const size_t kPreload = 100;
  const size_t kFinal = 400;
  for (size_t k = 0; k < kFinal / 2; ++k) {
    in.setup_rules.push_back(RuleInput{k % in.lmrs, SelectiveRule(k, 2 * k)});
  }
  for (size_t l = 0; l < in.lmrs; ++l) {
    const int64_t lo = 5000 + 250 * static_cast<int64_t>(l);
    in.setup_rules.push_back(RuleInput{
        l, "search CycleProvider c register c where c.serverPort >= " +
               std::to_string(lo) + " and c.serverPort < " +
               std::to_string(lo + 250)});
  }
  for (size_t j = 0; j < kPreload; ++j) in.preload.push_back(MakeDoc(j));
  const std::vector<double> queries = Stratified(kSteps, rng, true);
  const size_t lmr_offset = static_cast<size_t>(Uniform(rng, 0, in.lmrs - 1));
  size_t live = kPreload;
  for (size_t s = 0; s < kSteps; ++s) {
    StepInput step;
    for (size_t d = 0; d < 2; ++d) {
      step.grow_docs.push_back(AsInput(MakeDoc(live++)));
    }
    const rdf::RdfDocument fresh = MakeDoc(kFinal + 1000 + s);
    step.new_doc = AsInput(fresh);
    step.delete_uri = fresh.uri();
    step.update_doc = MakeDoc(static_cast<size_t>(Uniform(rng, 0, live - 1)),
                              {}, Uniform(rng, 5000, 5999));
    step.query_lmr = (s + lmr_offset) % in.lmrs;
    step.query = MemoryRule(kMemoryBase +
                            Scale(queries[s], static_cast<int64_t>(live)));
    step.probe_rule = RuleInput{
        (s + lmr_offset + 1) % in.lmrs,
        SelectiveRule(0, static_cast<size_t>(Uniform(rng, 0, live - 1)))};
    in.steps.push_back(std::move(step));
  }
  while (live < kFinal) in.burst.push_back(AsInput(MakeDoc(live++)));
  return in;
}

/// `churn`: 8 LMRs with 6 broad, overlapping `memory > k` rules each
/// over a sliding window of 200 documents; the WAL fsyncs in batches.
/// Each step registers a new document, updates a random live one,
/// deletes the oldest, queries one LMR and subscribes (then
/// unsubscribes) one broad rule.
Inputs ChurnInputs(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Inputs in;
  in.lmrs = 8;
  in.fsync = wal::FsyncPolicy::kBatch;
  const size_t kWindow = 200;
  // Rule k takes threshold stratum k, so LMR l holds strata l, l+8, ...:
  // cache sizes and fan-out are the same for every seed up to jitter.
  const std::vector<double> thresholds = Stratified(6 * in.lmrs, rng, false);
  for (size_t k = 0; k < thresholds.size(); ++k) {
    in.setup_rules.push_back(
        RuleInput{k % in.lmrs, MemoryRule(Scale(thresholds[k], 1000))});
  }
  const std::vector<double> queries = Stratified(kSteps, rng, true);
  const std::vector<double> probes = Stratified(kSteps, rng, true);
  const size_t lmr_offset = static_cast<size_t>(Uniform(rng, 0, in.lmrs - 1));
  // Memory sizes of every document the cycle registers (window, steps,
  // burst) and of every update, stratified so fan-out per write is the
  // same for every seed up to jitter.
  const size_t kBurst = 100;
  const std::vector<double> memory =
      Stratified(kWindow + kSteps + kBurst, rng, true);
  const std::vector<double> updates = Stratified(kSteps, rng, true);
  for (size_t j = 0; j < kWindow; ++j) {
    in.preload.push_back(MakeDoc(j, Scale(memory[j], 1000)));
  }
  for (size_t s = 0; s < kSteps; ++s) {
    StepInput step;
    step.new_doc =
        AsInput(MakeDoc(kWindow + s, Scale(memory[kWindow + s], 1000)));
    const size_t target = static_cast<size_t>(Uniform(
        rng, static_cast<int64_t>(s), static_cast<int64_t>(kWindow + s)));
    step.update_doc = MakeDoc(target, Scale(updates[s], 1000));
    step.delete_uri = WorkloadGenerator::DocumentUri(s);
    step.query_lmr = (s + lmr_offset) % in.lmrs;
    step.query = MemoryRule(Scale(queries[s], 1000));
    step.probe_rule = RuleInput{(s + lmr_offset + 3) % in.lmrs,
                                MemoryRule(Scale(probes[s], 1000))};
    in.steps.push_back(std::move(step));
  }
  for (size_t j = kWindow + kSteps; j < memory.size(); ++j) {
    in.burst.push_back(AsInput(MakeDoc(j, Scale(memory[j], 1000))));
  }
  return in;
}

// ---- Deployment ----------------------------------------------------------

class Deployment {
 public:
  Deployment(std::string dir, const Inputs& in)
      : dir_(std::move(dir)), in_(in) {}

  /// Creates the deployment, or re-adds every node from its WAL when the
  /// directories already hold one. Nodes are added in the same order
  /// each time so every LMR reattaches under its journaled id.
  /// `mdp_s`/`lmr_s` receive the time spent adding each kind of node.
  Status Open(double* mdp_s = nullptr, double* lmr_s = nullptr) {
    filter::RuleStoreOptions rule_options;
    rule_options.num_shards = kShards;
    filter::EngineOptions engine_options;
    engine_options.num_workers = kWorkers;
    NetworkOptions network_options;
    network_options.asynchronous = true;
    system_ = std::make_unique<MdvSystem>(rdf::MakeObjectGlobeSchema(),
                                          rule_options, network_options,
                                          engine_options);
    mdps_.clear();
    lmrs_.clear();
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kMdps; ++i) {
      std::optional<obs::ScopedSpan> span;
      if (obs::DefaultTracer().enabled()) span.emplace("wal.recover_mdp");
      MDV_ASSIGN_OR_RETURN(MetadataProvider * mdp,
                           system_->AddDurableProvider(
                               WalOptions("mdp-" + std::to_string(i))));
      mdps_.push_back(mdp);
    }
    if (mdp_s != nullptr) *mdp_s = SecondsSince(t0);
    t0 = Clock::now();
    for (size_t l = 0; l < in_.lmrs; ++l) {
      std::optional<obs::ScopedSpan> span;
      if (obs::DefaultTracer().enabled()) span.emplace("wal.recover_lmr");
      MDV_ASSIGN_OR_RETURN(
          LocalMetadataRepository * lmr,
          system_->AddDurableRepository(WalOptions("lmr-" + std::to_string(l)),
                                        mdp_of(l)));
      lmrs_.push_back(lmr);
    }
    if (lmr_s != nullptr) *lmr_s = SecondsSince(t0);
    return Status::OK();
  }

  /// Drops every node without a checkpoint; the WALs stay on disk.
  void Crash() {
    mdps_.clear();
    lmrs_.clear();
    system_.reset();
  }

  Network& network() { return system_->network(); }
  MetadataProvider* mdp(size_t i) { return mdps_[i % mdps_.size()]; }
  MetadataProvider* mdp_of(size_t lmr) { return mdps_[lmr % kMdps]; }
  LocalMetadataRepository* lmr(size_t i) { return lmrs_[i]; }
  size_t num_lmrs() const { return lmrs_.size(); }
  const rdf::RdfSchema& schema() const { return system_->schema(); }

 private:
  wal::WalOptions WalOptions(const std::string& node) const {
    wal::WalOptions options;
    options.dir = dir_ + "/" + node;
    options.fsync = in_.fsync;
    return options;
  }

  std::string dir_;
  const Inputs& in_;
  std::unique_ptr<MdvSystem> system_;
  std::vector<MetadataProvider*> mdps_;
  std::vector<LocalMetadataRepository*> lmrs_;
};

// ---- Per-layer accounting (traced cycles) ---------------------------------

/// Registry counters read around each operation; deltas are exact.
enum Count {
  kRowsExamined,
  kFullScans,
  kIndexProbes,
  kNotifications,
  kResourcesShipped,
  kWalAppends,
  kWalBytes,
  kWalFsyncs,
  kWalReplayed,
  kLmrApplied,
  kLintDuplicate,
  kLintSubsumed,
  kPoolBusyUs,
  kPoolWallUs,
  kBytesSent,  // Transport bytes of the current deployment.
  kCounts
};

struct Reading {
  int64_t v[kCounts] = {};

  int64_t operator[](Count c) const { return v[c]; }
  Reading& operator+=(const Reading& o) {
    for (int i = 0; i < kCounts; ++i) v[i] += o.v[i];
    return *this;
  }
  Reading operator-(const Reading& o) const {
    Reading out = *this;
    for (int i = 0; i < kCounts; ++i) out.v[i] -= o.v[i];
    return out;
  }
};

class Counters {
 public:
  Counters() {
    obs::MetricsRegistry& r = obs::DefaultMetrics();
    // Table counters exist once an MDP has created its filter tables.
    const std::string prefix = "mdv.rdbms.table.";
    const obs::MetricsSnapshot snapshot = r.Snapshot();
    for (const auto& [name, value] : snapshot.counters) {
      if (name.rfind(prefix, 0) != 0) continue;
      if (EndsWith(name, ".rows_examined_total")) {
        rows_.push_back(&r.GetCounter(name));
      }
      if (EndsWith(name, ".full_scans_total")) {
        scans_.push_back(&r.GetCounter(name));
      }
    }
    const std::pair<Count, const char*> named[] = {
        {kIndexProbes, "mdv.filter.index_probes_total"},
        {kNotifications, "mdv.publish.notifications_total"},
        {kResourcesShipped, "mdv.publish.resources_shipped_total"},
        {kWalAppends, "mdv.wal.appends_total"},
        {kWalBytes, "mdv.wal.bytes_total"},
        {kWalFsyncs, "mdv.wal.fsyncs_total"},
        {kWalReplayed, "mdv.wal.replayed_records_total"},
        {kLmrApplied, "mdv.lmr.notifications_applied_total"},
        {kLintDuplicate, "mdv.lint.duplicate_total"},
        {kLintSubsumed, "mdv.lint.subsumed_total"},
        {kPoolBusyUs, "mdv.filter.pool.busy_us_total"},
        {kPoolWallUs, "mdv.filter.pool.wall_us_total"},
    };
    for (const auto& [count, name] : named) {
      named_.emplace_back(count, &r.GetCounter(name));
    }
    unacked_ = &r.GetGauge("mdv.net.unacked_depth");
    holdback_ = &r.GetGauge("mdv.net.holdback_depth");
  }

  /// `network` may be null between a crash and the recovery.
  Reading Read(const Network* network) const {
    Reading out;
    for (const obs::Counter* c : rows_) out.v[kRowsExamined] += c->value();
    for (const obs::Counter* c : scans_) out.v[kFullScans] += c->value();
    for (const auto& [count, counter] : named_) out.v[count] = counter->value();
    if (network != nullptr) {
      out.v[kBytesSent] = network->transport_stats().bytes_sent;
    }
    return out;
  }

  int64_t unacked() const { return unacked_->value(); }
  int64_t holdback() const { return holdback_->value(); }

 private:
  static bool EndsWith(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  std::vector<obs::Counter*> rows_;
  std::vector<obs::Counter*> scans_;
  std::vector<std::pair<Count, obs::Counter*>> named_;
  obs::Gauge* unacked_ = nullptr;
  obs::Gauge* holdback_ = nullptr;
};

/// Everything the traced cycles of one run accumulate.
struct LayerStats {
  int64_t ops[kOps] = {};
  Reading delta[kOps];
  std::map<std::string, int64_t> own_ns[kOps];
  int64_t covered_ns[kOps] = {};
  int64_t duration_ns[kOps] = {};
  std::vector<double> parse_us, compile_us, lint_us, apply_us;
  std::vector<double> cache_entries;
  int64_t unacked_peak = 0;
  int64_t holdback_peak = 0;
  int64_t redelivered = 0;
  int64_t published = 0;
  int64_t incomplete_traces = 0;
  double recover_mdp_s = 0;
  double recover_lmr_s = 0;
  int cycles = 0;
  obs::MetricsRegistry slo_registry;
  obs::TraceAggregator slo{&slo_registry};

  /// Attributes the retained spans to their operations and clears the
  /// ring. Every operation is a trace rooted at a benchmark span named
  /// "op.<operation>". During recovery, replayed LMR applies carry the
  /// trace context of the notification they replay, so their traces
  /// have no root by design and are not counted as incomplete.
  void Drain(bool recovering = false) {
    std::vector<obs::SpanRecord> spans = obs::DefaultTracer().Snapshot();
    obs::DefaultTracer().Clear();
    slo.Ingest(spans);
    for (auto& [trace_id, trace] : GroupByTrace(std::move(spans))) {
      SpanTree tree(std::move(trace));
      if (tree.root() < 0) {
        if (!recovering) ++incomplete_traces;
        continue;
      }
      const obs::SpanRecord& root = tree.spans()[tree.root()];
      int op = -1;
      for (int o = 0; o < kOps; ++o) {
        if (root.name == std::string("op.") + kOpNames[o]) op = o;
      }
      if (op < 0) continue;
      const int64_t duration = root.end_ns - root.start_ns;
      duration_ns[op] += duration;
      covered_ns[op] += static_cast<int64_t>(tree.RootCoverage() *
                                             static_cast<double>(duration));
      for (const auto& [name, ns] : OwnNsByName(tree)) own_ns[op][name] += ns;
      for (const obs::SpanRecord& span : tree.spans()) {
        const double us =
            static_cast<double>(span.end_ns - span.start_ns) / 1e3;
        if (span.name == "lmr.apply_notification") apply_us.push_back(us);
        if (span.name == "rdf.parse") parse_us.push_back(us);
      }
    }
  }
};

// ---- One cycle -------------------------------------------------------------

/// What one cycle measured.
struct Samples {
  std::vector<double> ms[kOps];
  std::vector<double> setup_s, burst_docs_per_s, recover_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
};

/// Operation counts and gate verdict over every cycle of a run.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Add(const Samples& s) {
    attempted += s.attempted;
    failed += s.failed;
    correct = correct && s.correct;
  }
};

class Cycle {
 public:
  Cycle(const Inputs& in, std::string dir, Samples* out, LayerStats* layers)
      : in_(in), dir_(std::move(dir)), deployment_(dir_, in), out_(out),
        layers_(layers), tracer_(obs::DefaultTracer()) {}

  /// Set-up, the first `steps` steps and a recovery, for samples that
  /// are thrown away: allocator pools, the page cache and lazily
  /// created metrics settle before the timed cycles.
  void WarmUp(size_t steps) {
    std::filesystem::remove_all(dir_);
    tracer_.set_enabled(false);
    if (Setup()) {
      for (size_t i = 0; i < std::min(steps, in_.steps.size()); ++i) {
        RunStep(in_.steps[i]);
      }
      Recover(Capture());
    }
    deployment_.Crash();
    std::filesystem::remove_all(dir_);
  }

  void Run() {
    std::filesystem::remove_all(dir_);
    tracer_.set_enabled(false);
    for (int i = 1; i < kSetups; ++i) {
      if (!Setup()) return;
      deployment_.Crash();
      std::filesystem::remove_all(dir_);
      rules_.clear();
      live_docs_.clear();
    }
    if (!Setup()) return;
    std::optional<Counters> counters;
    if (layers_ != nullptr) {
      counters.emplace();
      counters_ = &*counters;
      link_before_ = deployment_.network().link_stats();
      tracer_.Clear();
      tracer_.set_enabled(true);
    }
    for (const StepInput& step : in_.steps) {
      RunStep(step);
      if (layers_ != nullptr) layers_->Drain();
    }
    Burst();
    tracer_.set_enabled(false);
    if (layers_ != nullptr) {
      layers_->Drain();
      const net::LinkStats link = deployment_.network().link_stats();
      layers_->redelivered += link.redelivered - link_before_.redelivered;
      layers_->published += link.published - link_before_.published;
    }
    const std::optional<State> before = Gate();
    if (before.has_value()) Recover(*before);
    tracer_.set_enabled(false);
    deployment_.Crash();
    std::filesystem::remove_all(dir_);
    if (layers_ != nullptr) ++layers_->cycles;
  }

 private:
  struct State {
    std::vector<std::string> mdp_docs;
    std::vector<std::string> lmr_caches;
    std::vector<std::map<uint64_t, uint64_t>> lmr_vectors;
  };

  bool Fail(const std::string& what, const Status& status) {
    ++out_->failed;
    std::fprintf(stderr, "failed: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    return false;
  }

  bool Incorrect(const std::string& what) {
    out_->correct = false;
    std::fprintf(stderr, "incorrect: %s\n", what.c_str());
    return false;
  }

  bool Quiesce(const std::string& what) {
    if (deployment_.network().WaitQuiescent()) return true;
    return Fail(what, Status::Internal("network did not quiesce"));
  }

  bool Setup() {
    const Clock::time_point t0 = Clock::now();
    ++out_->attempted;
    Status opened = deployment_.Open();
    if (!opened.ok()) return Fail("open deployment", opened);
    for (const RuleInput& rule : in_.setup_rules) {
      ++out_->attempted;
      Result<pubsub::SubscriptionId> id =
          deployment_.lmr(rule.lmr)->Subscribe(rule.text);
      if (!id.ok()) {
        Fail("set-up subscribe", id.status());
        continue;
      }
      rules_[rule.lmr].insert(rule.text);
    }
    ++out_->attempted;
    Status preloaded = deployment_.mdp(0)->RegisterDocumentBatch(in_.preload);
    if (!preloaded.ok()) return Fail("preload", preloaded);
    for (const rdf::RdfDocument& doc : in_.preload) {
      live_docs_.insert(doc.uri());
    }
    if (!Quiesce("set-up")) return false;
    out_->setup_s.push_back(SecondsSince(t0));
    return true;
  }

  /// Runs one public call and waits for quiescence; records its latency
  /// and, in traced cycles, its span tree and counter deltas.
  template <typename Call>
  bool Timed(Op op, const std::string& what, Call&& call) {
    ++out_->attempted;
    Reading before;
    if (counters_ != nullptr) before = counters_->Read(&deployment_.network());
    Status status = Status::OK();
    bool quiet = false;
    const Clock::time_point t0 = Clock::now();
    {
      std::optional<obs::ScopedSpan> root;
      if (counters_ != nullptr) root.emplace(std::string("op.") + kOpNames[op]);
      status = call();
      if (counters_ != nullptr) {
        layers_->unacked_peak =
            std::max(layers_->unacked_peak, counters_->unacked());
        layers_->holdback_peak =
            std::max(layers_->holdback_peak, counters_->holdback());
      }
      quiet = deployment_.network().WaitQuiescent();
    }
    const double ms = SecondsSince(t0) * 1e3;
    if (!status.ok()) return Fail(what, status);
    if (!quiet) return Fail(what, Status::Internal("network did not quiesce"));
    out_->ms[op].push_back(ms);
    if (counters_ != nullptr) {
      layers_->ops[op] += 1;
      layers_->delta[op] += counters_->Read(&deployment_.network()) - before;
    }
    return true;
  }

  void Subscribe(const RuleInput& rule, bool keep) {
    if (counters_ != nullptr) {
      // Front-end costs, timed beside the Subscribe that repeats them.
      Clock::time_point t0 = Clock::now();
      Result<rules::CompiledRule> compiled =
          rules::CompileRule(rule.text, deployment_.schema());
      layers_->compile_us.push_back(SecondsSince(t0) * 1e6);
      if (compiled.ok()) {
        t0 = Clock::now();
        rules::RuleLint lint = rules::LintRule(compiled->analyzed,
                                               deployment_.schema());
        layers_->lint_us.push_back(SecondsSince(t0) * 1e6);
        (void)lint;
      }
    }
    LocalMetadataRepository* lmr = deployment_.lmr(rule.lmr);
    pubsub::SubscriptionId id = 0;
    const bool ok = Timed(kSubscribe, "subscribe", [&]() -> Status {
      Result<pubsub::SubscriptionId> r = lmr->Subscribe(rule.text);
      if (!r.ok()) return r.status();
      id = *r;
      return Status::OK();
    });
    if (!ok) return;
    if (keep) {
      rules_[rule.lmr].insert(rule.text);
      return;
    }
    ++out_->attempted;
    Status removed = lmr->Unsubscribe(id);
    if (!removed.ok()) {
      Fail("unsubscribe", removed);
      return;
    }
    Quiesce("unsubscribe");
  }

  void Register(const DocInput& doc) {
    MetadataProvider* mdp = deployment_.mdp(writes_++);
    const bool ok = Timed(kPublish, "register " + doc.uri, [&]() -> Status {
      if (counters_ == nullptr) {
        return mdp->RegisterDocumentXml(doc.xml, doc.uri);
      }
      Result<rdf::RdfDocument> parsed = [&] {
        obs::ScopedSpan parse("rdf.parse");
        return rdf::ParseRdfXml(doc.xml, doc.uri);
      }();
      if (!parsed.ok()) return parsed.status();
      return mdp->RegisterDocument(std::move(parsed).value());
    });
    if (ok) live_docs_.insert(doc.uri);
  }

  void RunStep(const StepInput& step) {
    for (const RuleInput& rule : step.grow_rules) Subscribe(rule, true);
    for (const DocInput& doc : step.grow_docs) Register(doc);
    Register(step.new_doc);
    MetadataProvider* writer = deployment_.mdp(writes_++);
    Timed(kUpdate, "update " + step.update_doc.uri(),
          [&] { return writer->UpdateDocument(step.update_doc); });
    writer = deployment_.mdp(writes_++);
    if (Timed(kDelete, "delete " + step.delete_uri,
              [&] { return writer->DeleteDocument(step.delete_uri); })) {
      live_docs_.erase(step.delete_uri);
    }
    LocalMetadataRepository* lmr = deployment_.lmr(step.query_lmr);
    if (counters_ != nullptr) {
      layers_->cache_entries.push_back(static_cast<double>(lmr->CacheSize()));
    }
    Timed(kQuery, "query", [&]() -> Status {
      std::optional<obs::ScopedSpan> span;
      if (counters_ != nullptr) span.emplace("lmr.query");
      Result<std::vector<QueryMatch>> matches = lmr->Query(step.query);
      return matches.ok() ? Status::OK() : matches.status();
    });
    if (step.probe_rule.has_value()) Subscribe(*step.probe_rule, false);
  }

  void Burst() {
    if (in_.burst.empty()) return;
    const Clock::time_point t0 = Clock::now();
    size_t registered = 0;
    for (const DocInput& doc : in_.burst) {
      ++out_->attempted;
      Status st =
          deployment_.mdp(writes_++)->RegisterDocumentXml(doc.xml, doc.uri);
      if (!st.ok()) {
        Fail("burst register " + doc.uri, st);
        continue;
      }
      live_docs_.insert(doc.uri);
      ++registered;
    }
    if (!Quiesce("burst")) return;
    out_->burst_docs_per_s.push_back(static_cast<double>(registered) /
                                     SecondsSince(t0));
  }

  static std::string DumpCache(const LocalMetadataRepository& lmr) {
    std::ostringstream out;
    for (const std::string& uri : lmr.CachedUris()) {
      const CacheEntry* e = lmr.Find(uri);
      if (e == nullptr) continue;
      out << uri << " " << e->resource.class_name() << " v" << e->version.origin
          << "." << e->version.seq << " local=" << e->local << " subs=";
      for (pubsub::SubscriptionId s : e->matched_subscriptions) out << s << ",";
      for (const rdf::Property& p : e->resource.properties()) {
        out << " " << p.name << "=" << p.value;
      }
      out << "\n";
    }
    return out.str();
  }

  State Capture() {
    State s;
    for (size_t i = 0; i < kMdps; ++i) {
      MetadataProvider* mdp = deployment_.mdp(i);
      std::string docs;
      for (const std::string& uri : mdp->documents().DocumentUris()) {
        docs += uri + "\n" + rdf::WriteRdfXml(*mdp->documents().Find(uri)) +
                "\n";
      }
      s.mdp_docs.push_back(std::move(docs));
    }
    for (size_t l = 0; l < deployment_.num_lmrs(); ++l) {
      s.lmr_caches.push_back(DumpCache(*deployment_.lmr(l)));
      s.lmr_vectors.push_back(deployment_.lmr(l)->version_vector());
    }
    return s;
  }

  /// The correctness gate, outside every timed region. Returns the
  /// state recovery must reproduce, or nothing if the gate failed.
  std::optional<State> Gate() {
    bool ok = true;
    for (size_t l = 0; l < deployment_.num_lmrs(); ++l) {
      LocalMetadataRepository* lmr = deployment_.lmr(l);
      Status audit = lmr->AuditCacheInvariants();
      if (!audit.ok()) ok = Incorrect("LMR " + std::to_string(l) + " audit: " +
                                      audit.ToString());
      std::set<std::string> truth;
      for (const std::string& text : rules_[l]) {
        Result<std::vector<std::string>> matches =
            deployment_.mdp_of(l)->Browse(text);
        if (!matches.ok()) {
          ok = Incorrect("browse: " + matches.status().ToString());
          continue;
        }
        truth.insert(matches->begin(), matches->end());
      }
      std::set<std::string> cached;
      for (const std::string& uri : lmr->CachedUris()) {
        const CacheEntry* e = lmr->Find(uri);
        if (e != nullptr && e->resource.class_name() == "CycleProvider") {
          cached.insert(uri);
        }
      }
      if (cached != truth) {
        ok = Incorrect("LMR " + std::to_string(l) + " caches " +
                       std::to_string(cached.size()) +
                       " CycleProviders, its subscriptions match " +
                       std::to_string(truth.size()));
      }
    }
    std::vector<std::string> docs0 =
        deployment_.mdp(0)->documents().DocumentUris();
    std::vector<std::string> docs1 =
        deployment_.mdp(1)->documents().DocumentUris();
    std::sort(docs0.begin(), docs0.end());
    std::sort(docs1.begin(), docs1.end());
    if (docs0 != docs1) ok = Incorrect("the MDPs hold different documents");
    if (std::vector<std::string>(live_docs_.begin(), live_docs_.end()) !=
        docs0) {
      ok = Incorrect("the MDPs' documents differ from those registered");
    }
    const net::LinkStats link = deployment_.network().link_stats();
    if (link.dead_lettered != 0 || link.decode_errors != 0) {
      ok = Incorrect("dead-lettered " + std::to_string(link.dead_lettered) +
                     ", decode errors " + std::to_string(link.decode_errors));
    }
    if (!ok) return std::nullopt;
    return Capture();
  }

  void Recover(const State& before) {
    deployment_.Crash();
    if (layers_ != nullptr) {
      tracer_.Clear();
      tracer_.set_enabled(true);
    }
    ++out_->attempted;
    Reading replay_before;
    if (counters_ != nullptr) replay_before = counters_->Read(nullptr);
    double mdp_s = 0;
    double lmr_s = 0;
    const Clock::time_point t0 = Clock::now();
    Status opened = Status::OK();
    bool quiet = false;
    {
      std::optional<obs::ScopedSpan> root;
      if (layers_ != nullptr) root.emplace("op.recover");
      opened = deployment_.Open(&mdp_s, &lmr_s);
      if (opened.ok()) quiet = deployment_.network().WaitQuiescent();
    }
    const double recover_s = SecondsSince(t0);
    tracer_.set_enabled(false);
    if (!opened.ok()) {
      Fail("recover", opened);
      return;
    }
    if (!quiet) {
      Fail("recover", Status::Internal("network did not quiesce"));
      return;
    }
    out_->recover_s.push_back(recover_s);
    if (layers_ != nullptr) {
      layers_->Drain(/*recovering=*/true);
      layers_->ops[kRecover] += 1;
      layers_->recover_mdp_s += mdp_s;
      layers_->recover_lmr_s += lmr_s;
      if (counters_ != nullptr) {
        layers_->delta[kRecover] += counters_->Read(nullptr) - replay_before;
      }
    }
    const State now = Capture();
    for (size_t i = 0; i < now.mdp_docs.size(); ++i) {
      if (now.mdp_docs[i] != before.mdp_docs[i]) {
        Incorrect("MDP " + std::to_string(i) +
                  " documents changed across recovery");
      }
    }
    for (size_t l = 0; l < now.lmr_caches.size(); ++l) {
      if (now.lmr_caches[l] != before.lmr_caches[l]) {
        Incorrect("LMR " + std::to_string(l) +
                  " cache changed across recovery");
      }
      if (now.lmr_vectors[l] != before.lmr_vectors[l]) {
        Incorrect("LMR " + std::to_string(l) +
                  " version vector changed across recovery");
      }
      Status audit = deployment_.lmr(l)->AuditCacheInvariants();
      if (!audit.ok()) Incorrect("recovered LMR audit: " + audit.ToString());
    }
  }

  const Inputs& in_;
  std::string dir_;
  Deployment deployment_;
  Samples* out_;
  LayerStats* layers_;
  obs::Tracer& tracer_;
  Counters* counters_ = nullptr;
  net::LinkStats link_before_;
  size_t writes_ = 0;
  std::set<std::string> live_docs_;
  // Texts of the subscriptions each LMR keeps.
  std::map<size_t, std::set<std::string>> rules_;
};

// ---- Metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The cycles are identical, so the i-th call of a kind is the same call
/// on the same state in every cycle. The host's speed drifts by up to a
/// third for seconds to minutes at a time, and what it adds to a call is
/// noise, so each figure takes the best repetition:
///  - a latency percentile is taken over the calls of a cycle, each at
///    the lowest latency any cycle gave it;
///  - publish_docs_per_s and recover_s come from the best cycle;
///  - setup_s is the median over every set-up of the run.
std::vector<Metric> EndToEnd(const std::vector<Samples>& cycles) {
  const auto across = [&](auto figure, bool higher_is_better = false) {
    std::vector<double> values;
    for (const Samples& c : cycles) {
      const std::optional<double> v = figure(c);
      if (v.has_value()) values.push_back(*v);
    }
    return Percentile(values, higher_is_better ? 100 : 0);
  };
  const auto latency = [&](Op op, double p) {
    size_t calls = 0;
    for (const Samples& c : cycles) calls = std::max(calls, c.ms[op].size());
    std::vector<double> best(calls, std::numeric_limits<double>::infinity());
    for (const Samples& c : cycles) {
      // After a failed call the positions no longer line up.
      if (c.ms[op].size() != calls) continue;
      for (size_t i = 0; i < calls; ++i) {
        best[i] = std::min(best[i], c.ms[op][i]);
      }
    }
    if (HighestReportablePercentile(calls) < p) {
      std::fprintf(stderr, "warning: %zu %s calls are too few for a p%g\n",
                   calls, kOpNames[op], p);
    }
    return Percentile(best, p);
  };
  const auto single = [&](std::vector<double> Samples::*field,
                          bool higher_is_better = false) {
    return across(
        [field](const Samples& c) -> std::optional<double> {
          if ((c.*field).empty()) return std::nullopt;
          return (c.*field).front();
        },
        higher_is_better);
  };
  std::vector<double> setups;
  for (const Samples& c : cycles) {
    setups.insert(setups.end(), c.setup_s.begin(), c.setup_s.end());
  }
  return {
      {"setup_s", Percentile(setups, 50), "s"},
      {"subscribe_ms_p50", latency(kSubscribe, 50), "ms"},
      {"subscribe_ms_p90", latency(kSubscribe, 90), "ms"},
      {"publish_ms_p50", latency(kPublish, 50), "ms"},
      {"publish_ms_p90", latency(kPublish, 90), "ms"},
      {"publish_docs_per_s", single(&Samples::burst_docs_per_s, true),
       "1/s"},
      {"update_ms_p50", latency(kUpdate, 50), "ms"},
      {"update_ms_p90", latency(kUpdate, 90), "ms"},
      {"delete_ms_p50", latency(kDelete, 50), "ms"},
      {"query_ms_p50", latency(kQuery, 50), "ms"},
      {"query_ms_p90", latency(kQuery, 90), "ms"},
      {"recover_s", single(&Samples::recover_s), "s"},
  };
}

std::vector<Metric> PerLayer(const LayerStats& l,
                             const std::vector<Samples>& traced,
                             const std::vector<Samples>& plain) {
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto n = [&](int op) { return static_cast<double>(l.ops[op]); };
  const auto own_us = [&](int op, const char* name) {
    auto it = l.own_ns[op].find(name);
    return it == l.own_ns[op].end()
               ? 0.0
               : per(static_cast<double>(it->second) / 1e3, n(op));
  };
  const auto count = [&](int op, Count c) {
    return static_cast<double>(l.delta[op][c]);
  };
  Reading writes = l.delta[kPublish];
  writes += l.delta[kUpdate];
  writes += l.delta[kDelete];
  const double num_writes = n(kPublish) + n(kUpdate) + n(kDelete);
  const auto per_write = [&](Count c) {
    return per(static_cast<double>(writes[c]), num_writes);
  };
  const double cycles = std::max(1, l.cycles);
  double fsyncs = 0;
  for (int op = 0; op < kRecover; ++op) fsyncs += count(op, kWalFsyncs);
  double covered = 0;
  double total = 0;
  for (int op = 0; op < kOps; ++op) {
    covered += static_cast<double>(l.covered_ns[op]);
    total += static_cast<double>(l.duration_ns[op]);
  }
  const double busy = count(kPublish, kPoolBusyUs);
  const double wall = count(kPublish, kPoolWallUs);
  const auto stage_p50 = [&](const char* stage) {
    return l.slo.StageSnapshot(stage).Percentile(50);
  };
  double mean_cache = 0;
  for (double c : l.cache_entries) mean_cache += c;
  mean_cache = per(mean_cache, static_cast<double>(l.cache_entries.size()));

  std::vector<Metric> out = {
      {"rdf.parse_us_p50", Percentile(l.parse_us, 50), "us"},
      {"rules.compile_us_p50", Percentile(l.compile_us, 50), "us"},
      {"rules.lint_us_p50", Percentile(l.lint_us, 50), "us"},
      {"rules.lint_duplicate", count(kSubscribe, kLintDuplicate) / cycles,
       "count"},
      {"rules.lint_subsumed", count(kSubscribe, kLintSubsumed) / cycles,
       "count"},
      {"mdv.mdp.subscribe_self_us", own_us(kSubscribe, "mdp.subscribe"), "us"},
      {"mdv.mdp.publish_self_us", own_us(kPublish, "mdp.publish"), "us"},
      {"mdv.mdp.update_self_us", own_us(kUpdate, "mdp.update"), "us"},
      {"mdv.mdp.delete_self_us", own_us(kDelete, "mdp.delete"), "us"},
      {"mdv.lmr.apply_us_p50", Percentile(l.apply_us, 50), "us"},
      {"mdv.lmr.applied_per_write", per_write(kLmrApplied), "count"},
      {"mdv.lmr.cache_entries", mean_cache, "count"},
      {"mdv.lmr.query_self_us", own_us(kQuery, "lmr.query"), "us"},
      {"filter.initial_iteration_us",
       own_us(kPublish, "filter.initial_iteration"), "us"},
      {"filter.delta_join_us", own_us(kPublish, "filter.delta_join"), "us"},
      {"filter.materialize_us", own_us(kPublish, "filter.materialize"), "us"},
      {"filter.index_probes_per_publish",
       per(count(kPublish, kIndexProbes), n(kPublish)), "count"},
      {"filter.evaluate_new_rules_us",
       own_us(kSubscribe, "filter.evaluate_new_rules") +
           own_us(kSubscribe, "filter.new_rules_group"),
       "us"},
      {"filter.pool.utilization_pct", per(100 * busy, wall * kWorkers), "%"},
      {"filter.pool.busy_us", per(busy, n(kPublish)), "us"},
      {"filter.pool.wall_us", per(wall, n(kPublish)), "us"},
      {"rdbms.rows_examined_per_publish",
       per(count(kPublish, kRowsExamined), n(kPublish)), "count"},
      {"rdbms.full_scans_per_publish",
       per(count(kPublish, kFullScans), n(kPublish)), "count"},
      {"pubsub.new_matches_us", own_us(kPublish, "publish.new_matches"), "us"},
      {"pubsub.update_outcome_us",
       per(own_us(kUpdate, "publish.update_outcome") * n(kUpdate) +
               own_us(kDelete, "publish.update_outcome") * n(kDelete),
           n(kUpdate) + n(kDelete)),
       "us"},
      {"pubsub.notifications_per_write", per_write(kNotifications), "count"},
      {"pubsub.resources_shipped_per_write", per_write(kResourcesShipped),
       "count"},
      {"net.bytes_sent_per_write", per_write(kBytesSent), "B"},
      {"net.redelivered_ratio",
       per(static_cast<double>(l.redelivered),
           static_cast<double>(l.published)),
       "ratio"},
      {"net.unacked_depth_peak", static_cast<double>(l.unacked_peak), "count"},
      {"net.holdback_depth_peak", static_cast<double>(l.holdback_peak),
       "count"},
      {"slo.stage.transport_us_p50", stage_p50("transport"), "us"},
      {"slo.stage.deliver_us_p50", stage_p50("deliver"), "us"},
      {"slo.stage.holdback_us_p50", stage_p50("holdback"), "us"},
      {"slo.stage.apply_us_p50", stage_p50("apply"), "us"},
      {"wal.appends_per_write", per_write(kWalAppends), "count"},
      {"wal.bytes_per_write", per_write(kWalBytes), "B"},
      {"wal.fsyncs", fsyncs / cycles, "count"},
      {"wal.replay_records_per_s",
       per(count(kRecover, kWalReplayed), l.recover_mdp_s + l.recover_lmr_s),
       "1/s"},
      {"wal.recover_mdp_s", per(l.recover_mdp_s, n(kRecover)), "s"},
      {"wal.recover_lmr_s", per(l.recover_lmr_s, n(kRecover)), "s"},
      {"trace.coverage_pct", per(100 * covered, total), "%"},
      {"trace.dropped_spans",
       static_cast<double>(obs::DefaultTracer().dropped()), "count"},
      {"trace.incomplete_traces", static_cast<double>(l.incomplete_traces),
       "count"},
  };
  for (int op = 0; op < kOps; ++op) {
    out.push_back({std::string("trace.coverage.") + kOpNames[op] + "_pct",
                   per(100 * static_cast<double>(l.covered_ns[op]),
                       static_cast<double>(l.duration_ns[op])),
                   "%"});
  }
  const std::vector<Metric> with = EndToEnd(traced);
  const std::vector<Metric> without = EndToEnd(plain);
  for (size_t i = 0; i < with.size(); ++i) {
    out.push_back({"trace_overhead." + with[i].name,
                   with[i].value - without[i].value, with[i].unit});
  }
  return out;
}

std::string Json(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (tally.correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = "perfbench-work";
};

int Usage() {
  std::fprintf(stderr,
               "usage: mdv_perfbench --workload subscribe|publish|churn "
               "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  Inputs in;
  if (args.workload == "subscribe") {
    in = SubscribeInputs(args.seed);
  } else if (args.workload == "publish") {
    in = PublishInputs(args.seed);
  } else if (args.workload == "churn") {
    in = ChurnInputs(args.seed);
  } else {
    return Usage();
  }

  // The tracer records by default; end-to-end figures must not pay for
  // span retention. Traced cycles turn it on around their timed phases.
  obs::Tracer& tracer = obs::DefaultTracer();
  tracer.set_enabled(false);
  tracer.SetCapacity(size_t{1} << 18);

  std::vector<Samples> plain;
  std::vector<Samples> traced;
  LayerStats layers;
  Tally tally;
  {
    Samples warm_up;
    Cycle(in, args.work_dir + "/cycle", &warm_up, nullptr).WarmUp(kSteps / 5);
    tally.Add(warm_up);
  }
  const Clock::time_point start = Clock::now();
  double longest = 0;
  for (int cycle = 0;; ++cycle) {
    const bool trace_this = args.trace && cycle % 2 == 0;
    Samples samples;
    const Clock::time_point t0 = Clock::now();
    Cycle(in, args.work_dir + "/cycle", &samples,
          trace_this ? &layers : nullptr)
        .Run();
    const double took = SecondsSince(t0);
    longest = std::max(longest, took);
    std::fprintf(stderr, "cycle %d%s: %.2f s; p50 ms:", cycle,
                 trace_this ? " (traced)" : "", took);
    for (int op = 0; op < kRecover; ++op) {
      std::fprintf(stderr, " %s %.3f", kOpNames[op],
                   Percentile(samples.ms[op], 50));
    }
    std::fprintf(stderr, "\n");
    tally.Add(samples);
    (trace_this ? traced : plain).push_back(std::move(samples));
    const int min_cycles = args.trace ? 2 : 1;
    if (cycle + 1 >= min_cycles &&
        SecondsSince(start) + longest > args.seconds) {
      break;
    }
  }
  std::filesystem::remove_all(args.work_dir);

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(layers, traced, plain) : EndToEnd(plain);
  std::printf("%s\n", Json(tally, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace mdv::perfbench

int main(int argc, char** argv) { return mdv::perfbench::Main(argc, argv); }
