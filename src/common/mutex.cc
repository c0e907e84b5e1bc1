#include "common/mutex.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace mdv {

namespace {

/// One thread's held locks, outermost first. Fixed capacity: the real
/// hierarchy is ~4 deep; 32 leaves room without heap allocation on the
/// lock path (a thread_local vector would malloc under a lock and
/// deadlock a malloc-instrumented build).
constexpr int kMaxHeldLocks = 32;
thread_local const Mutex* t_held[kMaxHeldLocks];
thread_local int t_held_count = 0;

/// Set while the violation hook + report run on the violating thread,
/// so the dump path (which takes obs locks below the violating pair)
/// does not recurse into the checker.
thread_local bool t_in_violation = false;

/// Hook storage uses a raw std::mutex: mutex.cc is the one place
/// allowed to, and the hook mutex must not itself participate in rank
/// checking (it is taken during violation handling).
std::mutex& HookMutex() {
  static std::mutex mu;
  return mu;
}

std::function<void(const LockRankViolation&)>& HookSlot() {
  static std::function<void(const LockRankViolation&)> hook;
  return hook;
}

/// Tri-state so SetLockRankCheckEnabled can override the environment
/// probe in either direction: 0 = probe env/build, 1 = off, 2 = on.
std::atomic<int> g_check_override{0};

bool ProbeEnabled() {
  // Read-only env access; nothing in the process calls setenv.
  const char* env = std::getenv("MDV_LOCK_RANK_CHECK");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr) return std::strcmp(env, "0") != 0;
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#endif
#endif
#if !defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string FormatHeldStack() {
  std::string out;
  for (int i = 0; i < t_held_count; ++i) {
    if (!out.empty()) out += " -> ";
    out += t_held[i]->name();
    out += '(';
    out += std::to_string(static_cast<int>(t_held[i]->rank()));
    out += ')';
  }
  return out;
}

[[noreturn]] void ReportViolation(const Mutex& acquiring,
                                  const Mutex& holding) {
  t_in_violation = true;

  LockRankViolation violation;
  violation.acquiring_name = acquiring.name();
  violation.acquiring_rank = acquiring.rank();
  violation.holding_name = holding.name();
  violation.holding_rank = holding.rank();
  violation.held_stack = FormatHeldStack();

  std::fprintf(
      stderr,
      "lock-rank violation: acquiring '%s' (rank %d) while holding '%s' "
      "(rank %d)\n  held locks (outermost first): %s\n  rule: a thread may "
      "only acquire a mutex of strictly greater rank than any it holds; "
      "see DESIGN.md \"Concurrency model\"\n",
      violation.acquiring_name, static_cast<int>(violation.acquiring_rank),
      violation.holding_name, static_cast<int>(violation.holding_rank),
      violation.held_stack.c_str());

#if defined(__GLIBC__)
  void* frames[32];
  const int depth = backtrace(frames, 32);
  std::fprintf(stderr, "  acquisition stack:\n");
  backtrace_symbols_fd(frames, depth, 2);
#endif

  std::function<void(const LockRankViolation&)> hook;
  {
    std::lock_guard<std::mutex> lock(HookMutex());
    hook = HookSlot();
  }
  if (hook) hook(violation);

  std::abort();
}

void CheckAcquire(const Mutex& mu) {
  if (t_in_violation || !LockRankCheckEnabled()) return;
  if (t_held_count > 0) {
    const Mutex& top = *t_held[t_held_count - 1];
    if (mu.rank() <= top.rank()) ReportViolation(mu, top);
  }
}

void PushHeld(const Mutex& mu) {
  if (t_in_violation || !LockRankCheckEnabled()) return;
  if (t_held_count < kMaxHeldLocks) t_held[t_held_count] = &mu;
  ++t_held_count;  // Past capacity: count-only, so release stays paired.
}

/// Releases need not be LIFO (manual Lock/Unlock loops interleave), so
/// removal searches from the innermost end.
void PopHeld(const Mutex& mu) {
  if (t_in_violation || !LockRankCheckEnabled()) return;
  const int tracked = t_held_count < kMaxHeldLocks ? t_held_count
                                                   : kMaxHeldLocks;
  for (int i = tracked - 1; i >= 0; --i) {
    if (t_held[i] == &mu) {
      for (int j = i; j < tracked - 1; ++j) t_held[j] = t_held[j + 1];
      --t_held_count;
      return;
    }
  }
  if (t_held_count > kMaxHeldLocks) --t_held_count;  // Untracked overflow.
}

bool HeldByThisThread(const Mutex& mu) {
  const int tracked = t_held_count < kMaxHeldLocks ? t_held_count
                                                   : kMaxHeldLocks;
  for (int i = 0; i < tracked; ++i) {
    if (t_held[i] == &mu) return true;
  }
  return false;
}

}  // namespace

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kMdpApi: return "mdv.mdp.api";
    case LockRank::kLmrCache: return "mdv.lmr.cache";
    case LockRank::kNetworkBus: return "mdv.network";
    case LockRank::kRuleStore: return "mdv.rule_store";
    case LockRank::kNetLink: return "net.link";
    case LockRank::kNetTransport: return "net.transport";
    case LockRank::kNetEndpoint: return "net.transport.endpoint";
    case LockRank::kNetIdle: return "net.idle";
    case LockRank::kNetFault: return "net.fault";
    case LockRank::kFilterPool: return "filter.pool";
    case LockRank::kWalJournal: return "wal.journal";
    case LockRank::kObsRegistry: return "obs.metrics";
    case LockRank::kObsTracer: return "obs.tracer";
    case LockRank::kObsFlight: return "obs.flight.dump";
    case LockRank::kLogging: return "log.sink";
  }
  return "unknown";
}

bool LockRankCheckEnabled() {
  const int override_state = g_check_override.load(std::memory_order_relaxed);
  if (override_state != 0) return override_state == 2;
  static const bool enabled = ProbeEnabled();
  return enabled;
}

void SetLockRankCheckEnabled(bool enabled) {
  g_check_override.store(enabled ? 2 : 1, std::memory_order_relaxed);
}

void SetLockRankViolationHook(
    std::function<void(const LockRankViolation&)> hook) {
  std::lock_guard<std::mutex> lock(HookMutex());
  HookSlot() = std::move(hook);
}

void Mutex::Lock() {
  CheckAcquire(*this);
  mu_.lock();
  PushHeld(*this);
}

void Mutex::Unlock() {
  PopHeld(*this);
  mu_.unlock();
}

bool Mutex::TryLock() {
  CheckAcquire(*this);
  if (!mu_.try_lock()) return false;
  PushHeld(*this);
  return true;
}

void Mutex::AssertHeld() const {
  if (t_in_violation || !LockRankCheckEnabled()) return;
  if (!HeldByThisThread(*this)) {
    t_in_violation = true;
    std::fprintf(stderr,
                 "lock-rank violation: AssertHeld('%s') on a thread that "
                 "does not hold it\n  held locks (outermost first): %s\n",
                 name(), FormatHeldStack().c_str());
    std::abort();
  }
}

bool CondVar::WaitFor(Mutex& mu, int64_t timeout_us) {
  return cv_.wait_for(mu, std::chrono::microseconds(timeout_us)) ==
         std::cv_status::no_timeout;
}

}  // namespace mdv
