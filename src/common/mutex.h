#ifndef MDV_COMMON_MUTEX_H_
#define MDV_COMMON_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/thread_annotations.h"

namespace mdv {

/// The process-wide lock hierarchy. Every mdv::Mutex carries one rank;
/// a thread may only acquire a mutex of STRICTLY GREATER rank than the
/// highest it already holds. Acquiring equal rank is also a violation —
/// two same-rank locks taken in opposite orders by two threads is the
/// classic deadlock, and same-instance re-acquisition is an immediate
/// self-deadlock — so ranks double as a "no two of these nest" rule.
///
/// Ranks increase from the outermost lock (taken first, held longest)
/// to the innermost leaves (observability, logging), matching the real
/// call chains: an MDP entry point (kMdpApi) delivers into the network
/// bus (kNetworkBus) or the reliable link (kNetLink), which consults
/// the transport registry (kNetTransport); everything may touch the
/// obs registries and the log sink at the bottom. The full table —
/// rank, what it guards, who acquires it, and how to pick a rank for a
/// new mutex — lives in DESIGN.md, "Concurrency model".
///
/// The numeric gaps are deliberate: new locks slot in without renaming
/// neighbours.
enum class LockRank : int {
  /// MetadataProvider::api_mu_ — serializes one MDP's entry points.
  /// Outermost: held across filter runs, publishing and sync delivery.
  kMdpApi = 10,
  /// LocalMetadataRepository cache + join state. Acquired inside the
  /// MDP API lock (sync-mode delivery runs the LMR handler under
  /// kMdpApi) and from transport endpoint threads holding nothing; it
  /// nests around the network bus / link locks (Checkpoint copies flow
  /// state) and the WAL journal, but must never be held while calling
  /// back into the provider (Subscribe, snapshot requests).
  kLmrCache = 15,
  /// mdv::Network bus state (sync handler registry + stats).
  kNetworkBus = 20,
  /// Reserved for RuleStore-internal caches if they ever grow their own
  /// lock (today they are guarded by kMdpApi).
  kRuleStore = 30,
  /// net::ReliableLink flow/pending/receiver state. Held while asking
  /// the transport registry about endpoints, hence below it.
  kNetLink = 40,
  /// net::InProcessTransport endpoint registry + instance stats.
  kNetTransport = 50,
  /// One transport endpoint's delivery queue (never nests with the
  /// registry lock or another endpoint's).
  kNetEndpoint = 54,
  /// InProcessTransport idle-waiter handshake.
  kNetIdle = 57,
  /// net::FaultInjector decision state.
  kNetFault = 60,
  /// filter::ForkJoinRunner batch state.
  kFilterPool = 70,
  /// wal::Journal segment/manifest state. Acquired under kMdpApi (the
  /// MDP journals inside its entry points) and from transport endpoint
  /// threads holding nothing (the LMR's pre-ack journal hook runs after
  /// the link released kNetLink); only file I/O happens inside, so it
  /// ranks as a leaf above the obs registries.
  kWalJournal = 76,
  /// obs::MetricsRegistry name → handle map.
  kObsRegistry = 80,
  /// obs::Tracer span retention ring.
  kObsTracer = 84,
  /// obs::FlightRecorder last-dump state.
  kObsFlight = 86,
  /// Logging sink slot — innermost leaf; a sink must not lock anything.
  kLogging = 90,
};

const char* LockRankName(LockRank rank);

/// Whether the per-thread held-rank stack is checked on every
/// acquisition. Enabled when any of the following holds, probed once:
///  - MDV_LOCK_RANK_CHECK is set to anything but "0" (every ctest run
///    sets it, next to MDV_AUDIT_INVARIANTS),
///  - the build is a debug build (NDEBUG undefined),
///  - the build runs under ThreadSanitizer.
/// MDV_LOCK_RANK_CHECK=0 force-disables in all three cases.
bool LockRankCheckEnabled();

/// Test override (death tests flip it on regardless of environment).
void SetLockRankCheckEnabled(bool enabled);

/// What the checker saw when it fired: the lock being acquired, the
/// highest-ranked lock already held, and the thread's full held-lock
/// stack, formatted outermost-first as "name(rank) -> name(rank)".
struct LockRankViolation {
  const char* acquiring_name = "";
  LockRank acquiring_rank = LockRank::kMdpApi;
  const char* holding_name = "";
  LockRank holding_rank = LockRank::kMdpApi;
  std::string held_stack;
};

/// Installs the hook run (once, on the violating thread) before the
/// process aborts. obs/flight_recorder.cc installs the default hook at
/// static-init time: it records the violation into the flight ring and
/// AutoDumps the recent pipeline history next to the stderr report.
/// Rank checking is suspended on the violating thread while the hook
/// runs, so the hook may take (correctly ranked) locks of its own.
void SetLockRankViolationHook(std::function<void(const LockRankViolation&)> hook);

/// The annotated mutex every MDV component locks with. Wraps
/// std::mutex, carries its LockRank and a diagnostic name, and — when
/// LockRankCheckEnabled() — validates every acquisition against the
/// calling thread's held-rank stack, aborting on the *potential*
/// deadlock (out-of-order acquisition), not the deadlock itself.
///
/// The lower-case lock()/unlock() aliases satisfy BasicLockable so
/// CondVar (std::condition_variable_any) can wait on the Mutex
/// directly; rank bookkeeping stays correct across the wait's
/// release/reacquire cycle because it lives inside these methods.
class CAPABILITY("mutex") Mutex {
 public:
  /// `name` must outlive the mutex (string literals in practice); it
  /// names the lock in rank-violation reports and flight dumps.
  explicit Mutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();
  /// Never blocks; a successful out-of-order try-acquisition is still
  /// reported (it puts the thread in a state where the ordering rule
  /// can no longer hold).
  bool TryLock() TRY_ACQUIRE(true);

  /// Aborts when the checker is enabled and this thread does not hold
  /// the mutex; tells the static analysis the capability is held.
  void AssertHeld() const ASSERT_CAPABILITY(this);

  // BasicLockable, for std::condition_variable_any (CondVar).
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII lock for one Mutex — the lock_guard of this codebase.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to mdv::Mutex. Waits release and reacquire
/// the Mutex through its rank-tracked lock()/unlock(), so a wake-up
/// re-validates the acquisition order against whatever the thread still
/// holds. There are deliberately no predicate overloads: callers write
/// the `while (!condition) cv.Wait(mu);` loop themselves, which keeps
/// the guarded condition read inside the annotated caller (the analysis
/// cannot see through predicate lambdas) and makes spurious-wakeup
/// handling explicit.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, reacquires `mu` before returning.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Like Wait with a relative timeout. Returns false on timeout. A
  /// true return does NOT imply the condition: recheck in a loop
  /// against a deadline.
  bool WaitFor(Mutex& mu, int64_t timeout_us) REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace mdv

#endif  // MDV_COMMON_MUTEX_H_
