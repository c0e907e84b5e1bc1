#include "filter/fork_join.h"

#include "obs/metrics.h"

namespace mdv::filter {

namespace {

/// Registry handles of the runner, resolved once and shared by all
/// runners (the engine owns at most one per process in practice).
struct PoolMetrics {
  obs::MetricsRegistry& r = obs::DefaultMetrics();
  obs::Counter& batches = r.GetCounter("mdv.filter.pool.batches_total");
  obs::Counter& tasks = r.GetCounter("mdv.filter.pool.tasks_total");
  obs::Counter& busy_us = r.GetCounter("mdv.filter.pool.busy_us_total");
  obs::Counter& wall_us = r.GetCounter("mdv.filter.pool.wall_us_total");
  obs::Gauge& workers = r.GetGauge("mdv.filter.pool.workers");
  obs::Gauge& utilization = r.GetGauge("mdv.filter.pool.utilization_pct");

  static PoolMetrics& Get() {
    static PoolMetrics& metrics = *new PoolMetrics();
    return metrics;
  }
};

}  // namespace

ForkJoinRunner::ForkJoinRunner(int num_threads) {
  for (int i = 1; i < num_threads; ++i) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
  PoolMetrics::Get().workers.Set(this->num_threads());
}

ForkJoinRunner::~ForkJoinRunner() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& helper : helpers_) helper.join();
}

void ForkJoinRunner::Execute(const std::function<void()>& task) {
  const int64_t start_ns = obs::NowNs();
  task();
  busy_ns_.fetch_add(obs::NowNs() - start_ns, std::memory_order_relaxed);
}

void ForkJoinRunner::Run(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  const int64_t busy_before = busy_ns_.load(std::memory_order_relaxed);
  const int64_t start_ns = obs::NowNs();
  if (tasks.size() == 1 || helpers_.empty()) {
    for (const auto& task : tasks) Execute(task);
  } else {
    {
      MutexLock lock(mu_);
      tasks_ = &tasks;
      next_ = 0;
      unfinished_ = tasks.size();
      ++batch_;
    }
    wake_.NotifyAll();
    Work();
    // Helpers may still be finishing tasks they claimed; `tasks` must
    // outlive them.
    MutexLock lock(mu_);
    while (unfinished_ != 0) done_.Wait(mu_);
    tasks_ = nullptr;
  }
  const int64_t wall_ns = obs::NowNs() - start_ns;
  wall_ns_ += wall_ns;
  const int64_t busy_ns = busy_ns_.load(std::memory_order_relaxed);

  // Mirror this batch into the registry (additive, so several runners
  // compose); utilization is this runner's lifetime busy share of its
  // threads' capacity.
  PoolMetrics& metrics = PoolMetrics::Get();
  metrics.batches.Increment();
  metrics.tasks.Add(static_cast<int64_t>(tasks.size()));
  metrics.busy_us.Add((busy_ns - busy_before) / 1000);
  metrics.wall_us.Add(wall_ns / 1000);
  const int64_t capacity_ns = wall_ns_ * num_threads();
  metrics.utilization.Set(capacity_ns > 0 ? busy_ns * 100 / capacity_ns : 0);
}

void ForkJoinRunner::Work() {
  for (;;) {
    const std::function<void()>* task = nullptr;
    {
      MutexLock lock(mu_);
      if (tasks_ == nullptr || next_ == tasks_->size()) return;
      task = &(*tasks_)[next_++];
    }
    Execute(*task);
    MutexLock lock(mu_);
    if (--unfinished_ == 0) done_.NotifyAll();
  }
}

void ForkJoinRunner::HelperLoop() {
  uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!shutdown_ && batch_ == seen) wake_.Wait(mu_);
      if (shutdown_) return;
      seen = batch_;
    }
    Work();
  }
}

}  // namespace mdv::filter
