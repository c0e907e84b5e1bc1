// Tests for the annotated mutex wrappers and the lock-rank runtime
// deadlock detector (DESIGN.md, Concurrency model). The death tests are
// the executable contract of the rank hierarchy: every ctest run
// executes with MDV_LOCK_RANK_CHECK=1, and these prove the detector
// actually fires on an inverted acquisition order. The static half of
// the contract — clang's -Wthread-safety rejecting an unguarded
// access — lives in the negative-compile check registered next to this
// test (tests/negcompile_thread_safety.cc).

#include "common/mutex.h"

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"

namespace mdv {
namespace {

// Not a fixture test: runs before any SetLockRankCheckEnabled override
// can mask the probe. Every ctest invocation must set
// MDV_LOCK_RANK_CHECK=1 (tests/CMakeLists.txt wires it through
// ENVIRONMENT_MODIFICATION), so under ctest the detector is live in
// every test binary of the suite, not just this one.
TEST(LockRankEnvironment, CtestEnablesTheChecker) {
  if (std::getenv("MDV_LOCK_RANK_CHECK") == nullptr) {
    GTEST_SKIP() << "not running under ctest (MDV_LOCK_RANK_CHECK unset)";
  }
  EXPECT_TRUE(LockRankCheckEnabled());
}

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLockRankCheckEnabled(true); }
};

using LockRankDeathTest = LockRankTest;

TEST_F(LockRankTest, RanksAreStrictlyOrderedOutermostFirst) {
  // The hierarchy table of DESIGN.md, outermost (acquired first) to
  // innermost. A new rank slots between existing ones; this test pins
  // the relative order the rest of the codebase relies on.
  const LockRank order[] = {
      LockRank::kMdpApi,     LockRank::kNetworkBus, LockRank::kRuleStore,
      LockRank::kNetLink,    LockRank::kNetTransport,
      LockRank::kNetEndpoint, LockRank::kNetIdle,   LockRank::kNetFault,
      LockRank::kFilterPool, LockRank::kObsRegistry, LockRank::kObsTracer, LockRank::kObsFlight,
      LockRank::kLogging,
  };
  for (size_t i = 1; i < std::size(order); ++i) {
    EXPECT_LT(static_cast<int>(order[i - 1]), static_cast<int>(order[i]))
        << LockRankName(order[i - 1]) << " must rank outside "
        << LockRankName(order[i]);
  }
}

TEST_F(LockRankTest, LockRankNameCoversEveryRank) {
  for (LockRank rank :
       {LockRank::kMdpApi, LockRank::kNetworkBus, LockRank::kRuleStore,
        LockRank::kNetLink, LockRank::kNetTransport, LockRank::kNetEndpoint,
        LockRank::kNetIdle, LockRank::kNetFault, LockRank::kFilterPool,
        LockRank::kObsRegistry, LockRank::kObsTracer, LockRank::kObsFlight,
        LockRank::kLogging}) {
    EXPECT_STRNE(LockRankName(rank), "");
  }
}

TEST_F(LockRankTest, InOrderAcquisitionSucceeds) {
  Mutex outer(LockRank::kNetworkBus, "test.outer");
  Mutex inner(LockRank::kObsTracer, "test.inner");
  MutexLock outer_lock(outer);
  MutexLock inner_lock(inner);
  outer.AssertHeld();
  inner.AssertHeld();
}

TEST_F(LockRankTest, ReacquireAfterReleaseSucceeds) {
  Mutex mu(LockRank::kFilterPool, "test.pool");
  for (int i = 0; i < 3; ++i) {
    MutexLock lock(mu);
  }
}

TEST_F(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  Mutex inner(LockRank::kLogging, "test.log");
  Mutex outer(LockRank::kMdpApi, "test.api");
  EXPECT_DEATH(
      {
        MutexLock inner_lock(inner);
        MutexLock outer_lock(outer);  // kMdpApi while holding kLogging.
      },
      "lock-rank violation: acquiring 'test.api'.*while holding 'test.log'");
}

TEST_F(LockRankDeathTest, SameRankNestingAborts) {
  // Equal rank counts as a violation too: it catches self-deadlock and
  // ABBA between two same-rank mutexes.
  Mutex a(LockRank::kObsRegistry, "test.reg.a");
  Mutex b(LockRank::kObsRegistry, "test.reg.b");
  EXPECT_DEATH(
      {
        MutexLock lock_a(a);
        MutexLock lock_b(b);
      },
      "lock-rank violation: acquiring 'test.reg.b'.*"
      "while holding 'test.reg.a'");
}

TEST_F(LockRankDeathTest, ViolationNamesFullHeldStack) {
  Mutex top(LockRank::kNetworkBus, "test.bus");
  Mutex mid(LockRank::kNetTransport, "test.transport");
  Mutex bad(LockRank::kRuleStore, "test.rules");
  EXPECT_DEATH(
      {
        MutexLock top_lock(top);
        MutexLock mid_lock(mid);
        MutexLock bad_lock(bad);  // Rank 30 under rank 50: inverted.
      },
      "held locks \\(outermost first\\): test.bus.*test.transport");
}

TEST_F(LockRankDeathTest, TryLockSuccessIsRankChecked) {
  // TryLock cannot deadlock by blocking, but a successful TryLock taken
  // out of order still establishes the inverted ordering for a later
  // blocking acquire elsewhere — so it is checked all the same.
  Mutex inner(LockRank::kObsFlight, "test.flight");
  Mutex outer(LockRank::kNetLink, "test.link");
  EXPECT_DEATH(
      {
        MutexLock inner_lock(inner);
        (void)outer.TryLock();
      },
      "lock-rank violation: acquiring 'test.link'");
}

TEST_F(LockRankDeathTest, AssertHeldAbortsWhenNotHeld) {
  Mutex mu(LockRank::kObsRegistry, "test.unheld");
  EXPECT_DEATH(mu.AssertHeld(),
               "lock-rank violation: AssertHeld\\('test.unheld'\\)");
}

TEST_F(LockRankTest, DisabledCheckerAllowsInvertedOrder) {
  // The detector is a debugging aid, not a correctness dependency:
  // release builds may run with it off, and inverted acquisition must
  // then behave like plain mutexes (no tracking side effects).
  SetLockRankCheckEnabled(false);
  Mutex inner(LockRank::kLogging, "test.off.log");
  Mutex outer(LockRank::kMdpApi, "test.off.api");
  {
    MutexLock inner_lock(inner);
    MutexLock outer_lock(outer);
  }
  SetLockRankCheckEnabled(true);
}

TEST_F(LockRankTest, RanksAreIndependentAcrossThreads) {
  // The held-lock stack is per thread: a worker may take an outer-rank
  // mutex while this thread holds an inner-rank one.
  Mutex inner(LockRank::kLogging, "test.main.log");
  Mutex outer(LockRank::kMdpApi, "test.worker.api");
  MutexLock inner_lock(inner);
  std::thread worker([&] { MutexLock outer_lock(outer); });
  worker.join();
}

TEST_F(LockRankTest, CondVarWaitReacquiresWithCorrectBookkeeping) {
  Mutex mu(LockRank::kFilterPool, "test.cv");
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // Wait released and reacquired mu through the rank bookkeeping:
    // a subsequent inner acquisition must still pass the check...
    Mutex deeper(LockRank::kObsFlight, "test.cv.inner");
    MutexLock inner(deeper);
    mu.AssertHeld();
  }
  producer.join();
}

TEST_F(LockRankTest, CondVarWaitForTimesOut) {
  Mutex mu(LockRank::kFilterPool, "test.cv.timeout");
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitFor(mu, 1000));  // Nobody notifies: must time out.
  mu.AssertHeld();
}

TEST_F(LockRankTest, ViolationHookReceivesBothLocksAndStack) {
  // The production hook (installed by obs) snapshots the violation into
  // the flight recorder. Death tests cannot observe the hook, so this
  // exercises the struct contents via a scoped replacement hook that
  // records and then lets the abort proceed in a child process.
  Mutex inner(LockRank::kObsTracer, "test.hook.inner");
  Mutex outer(LockRank::kNetworkBus, "test.hook.outer");
  EXPECT_DEATH(
      {
        SetLockRankViolationHook([](const LockRankViolation& violation) {
          // Runs in the dying child: stderr is what EXPECT_DEATH sees.
          fprintf(stderr, "hook: %s under %s stack=[%s]\n",
                  violation.acquiring_name, violation.holding_name,
                  violation.held_stack.c_str());
        });
        MutexLock inner_lock(inner);
        MutexLock outer_lock(outer);
      },
      "hook: test.hook.outer under test.hook.inner "
      "stack=\\[test.hook.inner\\(84\\)\\]");
}

TEST_F(LockRankTest, StressNestedWorkersStayOrdered) {
  // Parallel smoke: many threads nest link -> transport (the reliable
  // link's sanctioned order: it asks the transport about endpoints while
  // holding its own lock) while the detector is on; none may trip it.
  Mutex link(LockRank::kNetLink, "test.stress.link");
  std::vector<std::unique_ptr<Mutex>> transports;
  for (int i = 0; i < 4; ++i) {
    transports.push_back(std::make_unique<Mutex>(LockRank::kNetTransport,
                                                 "test.stress.transport"));
  }
  std::atomic<int> iterations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        MutexLock link_lock(link);
        MutexLock transport_lock(*transports[(t + i) % transports.size()]);
        iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(iterations.load(), 4 * 200);
}

}  // namespace
}  // namespace mdv
