// The fork-join runner that fans a filter run out across rule-base
// shards: every task runs exactly once, the calling thread takes part,
// helpers survive across batches, small batches stay inline, and the
// destructor joins the helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "filter/fork_join.h"
#include "obs/metrics.h"

namespace mdv::filter {
namespace {

size_t ThreadCount() {
  size_t threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

/// Blocks each arriving thread until `expected` threads have arrived (or
/// a timeout passes, so a runner that serializes fails instead of
/// hanging). Returns whether the rendezvous completed.
class Rendezvous {
 public:
  explicit Rendezvous(int expected) : expected_(expected) {}

  bool Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == expected_) cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  const int expected_;
};

int64_t Counter(const char* name) {
  obs::MetricsSnapshot snap = obs::DefaultMetrics().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(ForkJoinRunnerTest, EveryTaskRunsExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ForkJoinRunner runner(threads);
    EXPECT_EQ(runner.num_threads(), threads);
    for (size_t count : {2u, 3u, 4u, 8u, 33u}) {  // Up to 8x the threads.
      std::vector<std::atomic<int>> runs(count);
      std::vector<std::function<void()>> tasks;
      for (size_t i = 0; i < count; ++i) {
        tasks.push_back([&runs, i] { runs[i].fetch_add(1); });
      }
      runner.Run(tasks);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "task " << i << " of " << count << " on " << threads;
      }
    }
  }
}

TEST(ForkJoinRunnerTest, AllThreadsIncludingTheCallerExecute) {
  // N tasks that only finish once N threads run them at the same time:
  // with N - 1 helpers, the caller must be the N-th.
  for (int threads : {2, 4}) {
    ForkJoinRunner runner(threads);
    Rendezvous rendezvous(threads);
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::atomic<int> met{0};
    std::vector<std::function<void()>> tasks(static_cast<size_t>(threads), [&] {
      if (rendezvous.Arrive()) met.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    runner.Run(tasks);
    EXPECT_EQ(met.load(), threads);
    EXPECT_EQ(ids.size(), static_cast<size_t>(threads));
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
  }
}

TEST(ForkJoinRunnerTest, RunnerIsReusedAcrossManyBatches) {
  ForkJoinRunner runner(3);
  const size_t threads_with_helpers = ThreadCount();
  const int64_t batches_before = Counter("mdv.filter.pool.batches_total");
  const int64_t tasks_before = Counter("mdv.filter.pool.tasks_total");
  std::atomic<int> total{0};
  for (int batch = 0; batch < 500; ++batch) {
    std::vector<std::function<void()>> tasks(
        static_cast<size_t>(2 + batch % 7), [&total] { total.fetch_add(1); });
    runner.Run(tasks);
  }
  int expected = 0;
  for (int batch = 0; batch < 500; ++batch) expected += 2 + batch % 7;
  EXPECT_EQ(total.load(), expected);
  EXPECT_EQ(Counter("mdv.filter.pool.batches_total") - batches_before, 500);
  EXPECT_EQ(Counter("mdv.filter.pool.tasks_total") - tasks_before, expected);
  EXPECT_EQ(ThreadCount(), threads_with_helpers);  // No spawn per batch.
}

TEST(ForkJoinRunnerTest, EmptyAndSingleTaskBatchesRunInline) {
  ForkJoinRunner runner(4);
  const int64_t batches_before = Counter("mdv.filter.pool.batches_total");
  runner.Run({});
  EXPECT_EQ(Counter("mdv.filter.pool.batches_total"), batches_before);

  std::thread::id ran_on;
  runner.Run({[&ran_on] { ran_on = std::this_thread::get_id(); }});
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(Counter("mdv.filter.pool.batches_total"), batches_before + 1);
}

TEST(ForkJoinRunnerTest, DestructionJoinsTheHelpers) {
  const size_t before = ThreadCount();
  {
    ForkJoinRunner runner(4);
    EXPECT_EQ(ThreadCount(), before + 3);
    std::vector<std::function<void()>> tasks(8, [] {});
    runner.Run(tasks);
  }
  EXPECT_EQ(ThreadCount(), before);  // Joined, not detached.

  ForkJoinRunner inline_only(1);
  EXPECT_EQ(ThreadCount(), before);  // No helper for one thread.
}

}  // namespace
}  // namespace mdv::filter
