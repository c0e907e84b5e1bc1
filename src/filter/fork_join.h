#ifndef MDV_FILTER_FORK_JOIN_H_
#define MDV_FILTER_FORK_JOIN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mdv::filter {

/// Fork-join over a batch of independent tasks on `num_threads` threads:
/// the calling thread plus `num_threads - 1` helpers that stay alive
/// across batches. Every thread claims the next unstarted task from one
/// shared index until the batch is exhausted, so an idle thread always
/// takes the next task — the greedy balancing a batch of a few skewed
/// shard passes needs. The filter engine uses it to fan a publish out
/// across rule-base shards.
///
/// One batch runs at a time. Tasks must not call Run() recursively and
/// exceptions must not escape them (the filter reports failures through
/// Status values). Execution counters go to the `mdv.filter.pool.*`
/// metrics of obs::DefaultMetrics() after every batch.
class ForkJoinRunner {
 public:
  /// Spawns `num_threads - 1` helpers (none when `num_threads` <= 1).
  explicit ForkJoinRunner(int num_threads);

  /// Joins the helpers. Must not be called while Run() is in flight.
  ~ForkJoinRunner();

  ForkJoinRunner(const ForkJoinRunner&) = delete;
  ForkJoinRunner& operator=(const ForkJoinRunner&) = delete;

  /// Threads that execute a batch, the caller included.
  int num_threads() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Executes every task exactly once and returns when the last one has
  /// completed. An empty batch, a 1-task batch and a runner without
  /// helpers run inline on the caller.
  void Run(const std::vector<std::function<void()>>& tasks) EXCLUDES(mu_);

 private:
  /// Claims and executes tasks of the current batch until none is left.
  void Work() EXCLUDES(mu_);
  void HelperLoop() EXCLUDES(mu_);
  void Execute(const std::function<void()>& task);

  std::atomic<int64_t> busy_ns_{0};  // Lifetime task time, for utilization.
  int64_t wall_ns_ = 0;              // Lifetime Run() time (one Run at a time).

  Mutex mu_{LockRank::kFilterPool, "filter.pool"};
  CondVar wake_;  // Helpers wait for a new batch.
  CondVar done_;  // Run() waits for unfinished_ == 0.
  /// The batch in flight; null between batches.
  const std::vector<std::function<void()>>* tasks_ GUARDED_BY(mu_) = nullptr;
  uint64_t batch_ GUARDED_BY(mu_) = 0;     // Bumped per batch.
  size_t next_ GUARDED_BY(mu_) = 0;        // Next unclaimed index.
  size_t unfinished_ GUARDED_BY(mu_) = 0;  // Claimed or not, not yet done.
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> helpers_;  // Last: they use the members above.
};

}  // namespace mdv::filter

#endif  // MDV_FILTER_FORK_JOIN_H_
