#ifndef MDV_NET_TRANSPORT_H_
#define MDV_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/fault.h"

namespace mdv::net {

/// Address of one receiving endpoint. LMR delivery endpoints use their
/// (non-negative) LmrId; the reliability layer derives negative ids for
/// sender-side ack endpoints (see reliable.h).
using EndpointId = int64_t;

/// Control endpoint on which a sender (MDP) receives snapshot requests
/// from joining replicas. Offset far below the ack-endpoint range
/// (-sender - 1, see reliable.h) so the two families never collide.
inline EndpointId SnapshotControlEndpoint(uint64_t sender) {
  return -static_cast<EndpointId>(sender) - (int64_t{1} << 40);
}

/// Counters of one transport instance (the process-wide mdv.net.*
/// registry metrics aggregate across instances).
struct TransportStats {
  int64_t sent = 0;            ///< Frames accepted for delivery (copies count).
  int64_t delivered = 0;       ///< Handler invocations completed.
  int64_t dropped_faults = 0;  ///< Frames eaten by the fault injector.
  int64_t dropped_overflow = 0;  ///< Frames rejected by a full queue.
  int64_t dropped_unbound = 0;   ///< Frames to endpoints nobody bound.
  /// Payload bytes of frames accepted for delivery (duplicated copies
  /// count, dropped/unbound ones do not). The replication tests assert
  /// delta catchup < full snapshot from deltas of this counter.
  int64_t bytes_sent = 0;
  int64_t bytes_delivered = 0;  ///< Bytes of frames handed to handlers.
};

/// Abstraction of the wire between MDPs and LMRs. Implementations move
/// opaque frames (produced by the wire codec) from Send() calls to the
/// handler bound at the destination endpoint. Delivery may be
/// unreliable unless documented otherwise: frames may be dropped,
/// duplicated, reordered or delayed. Reliability is layered on top (see
/// reliable.h), mirroring how MDV's paper deployment would sit on UDP-
/// or TCP-connected hosts "over the Internet".
class Transport {
 public:
  /// Receives one raw frame. Handlers for one endpoint are invoked
  /// serially (actor-style), handlers of different endpoints
  /// concurrently; which thread runs them is up to the implementation.
  using FrameHandler = std::function<void(std::string frame)>;

  virtual ~Transport() = default;

  /// Binds the handler of an endpoint; AlreadyExists if bound.
  virtual Status Bind(EndpointId endpoint, FrameHandler handler) = 0;

  /// Unbinds an endpoint and discards its queued frames. Linearizes
  /// against in-flight delivery: once Unbind returns, the handler is not
  /// running and will never run again. Calling it from inside the
  /// endpoint's own handler is allowed (the guarantee then holds as of
  /// the handler's return). Unknown endpoints are a no-op.
  virtual void Unbind(EndpointId endpoint) = 0;

  virtual bool IsBound(EndpointId endpoint) const = 0;

  /// Hands one frame to the endpoint. NotFound if the endpoint is
  /// unbound, ResourceExhausted if its queue is full; OK even when the
  /// fault injector decided to lose the frame (the sender cannot tell —
  /// that is the point).
  virtual Status Send(EndpointId to, std::string frame) = 0;

  /// Blocks until no frame is queued or being handled anywhere, or the
  /// timeout elapses. Establishes a happens-before edge with every
  /// completed handler, so a caller observing true may read handler-
  /// written state without further synchronization.
  virtual bool WaitIdle(int64_t timeout_us) = 0;

  /// Copies the per-instance counters.
  virtual TransportStats stats() const = 0;

  /// Deterministic per-frame fault schedule (see FaultInjector).
  /// Lossless transports ignore it.
  virtual void set_fault_schedule(FaultInjector::Schedule /*schedule*/) {}
};

/// Lossless, zero-latency transport that delivers on the calling
/// thread: a Send to an idle endpoint runs its handler before
/// returning, so single-threaded callers see every effect — including
/// the acks and snapshot chunks the handler sends on — once Send
/// returns. No worker threads.
///
/// No lock is held across a handler (callers deliver while holding
/// their own locks, and handlers take others). Instead each endpoint
/// carries a busy flag: a Send to an endpoint another call is already
/// delivering to appends to its FIFO queue, and the delivering thread
/// drains it — so one endpoint's frames run one at a time, in send
/// order.
class InlineTransport : public Transport {
 public:
  Status Bind(EndpointId endpoint, FrameHandler handler) override
      EXCLUDES(mu_);
  void Unbind(EndpointId endpoint) override EXCLUDES(mu_);
  bool IsBound(EndpointId endpoint) const override EXCLUDES(mu_);
  Status Send(EndpointId to, std::string frame) override EXCLUDES(mu_);
  bool WaitIdle(int64_t timeout_us) override EXCLUDES(mu_);
  TransportStats stats() const override EXCLUDES(mu_);

 private:
  struct Endpoint {
    explicit Endpoint(FrameHandler h) : handler(std::move(h)) {}
    /// Immutable after Bind, so the delivering thread calls it unlocked.
    const FrameHandler handler;
    /// The rest is guarded by the owning transport's mu_ (inexpressible
    /// as a GUARDED_BY, which cannot name another object's capability
    /// from a nested struct).
    std::deque<std::string> queue;
    bool busy = false;  ///< Some thread is draining the queue.
    bool unbound = false;
    std::thread::id deliverer;  ///< The draining thread while busy.
  };

  /// Runs `state`'s queued frames on this thread until the queue is
  /// empty or the endpoint is unbound, then clears its busy flag.
  void Drain(const std::shared_ptr<Endpoint>& state) EXCLUDES(mu_);

  /// Held only around registry, queue and counter updates — never
  /// across a handler.
  mutable Mutex mu_{LockRank::kNetTransport, "net.inline_transport"};
  /// Signalled whenever a drain ends (Unbind and WaitIdle wait on it).
  CondVar drained_cv_;
  std::map<EndpointId, std::shared_ptr<Endpoint>> endpoints_ GUARDED_BY(mu_);
  TransportStats stats_ GUARDED_BY(mu_);
  int64_t active_ GUARDED_BY(mu_) = 0;  ///< Frames queued or in a handler.
};

/// Tuning of the in-process transport.
struct TransportOptions {
  /// Bounded per-endpoint FIFO capacity; Send to a full queue fails.
  size_t queue_capacity = 1024;
  /// Synthetic one-way latency added to every frame.
  int64_t latency_us = 0;
  /// Uniform extra delay in [0, jitter_us] per frame (jitter > 0 makes
  /// near-simultaneous frames overtake each other, like real packets).
  int64_t jitter_us = 0;
  FaultOptions faults;
};

/// The asynchronous in-process implementation: one bounded queue and
/// one drainer thread per endpoint. Frames become visible to the
/// endpoint's handler after their synthetic delivery time; the queue is
/// ordered by delivery time, so jitter and injected reorder delays
/// produce genuine out-of-order delivery.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(TransportOptions options = {});
  ~InProcessTransport() override;

  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  Status Bind(EndpointId endpoint, FrameHandler handler) override
      EXCLUDES(mu_);
  void Unbind(EndpointId endpoint) override EXCLUDES(mu_);
  bool IsBound(EndpointId endpoint) const override EXCLUDES(mu_);
  Status Send(EndpointId to, std::string frame) override EXCLUDES(mu_);
  bool WaitIdle(int64_t timeout_us) override EXCLUDES(mu_, idle_mu_);

  /// Copies the per-instance counters under the registry lock; callers
  /// must not hold it (a handler reading stats() of its own transport
  /// runs lock-free and is fine — workers drop every lock before
  /// invoking handlers).
  TransportStats stats() const override EXCLUDES(mu_);
  FaultStats fault_stats() const { return injector_.stats(); }

  void set_fault_schedule(FaultInjector::Schedule schedule) override {
    injector_.set_schedule(std::move(schedule));
  }

  /// Frames currently queued across all endpoints (the queue_depth
  /// gauge's source).
  int64_t QueueDepth() const;

 private:
  struct Endpoint {
    /// Never nests with the registry lock or another endpoint's: Send
    /// and Unbind release mu_ before taking it, and workers hold
    /// nothing while delivering.
    Mutex mu{LockRank::kNetEndpoint, "net.transport.endpoint"};
    CondVar cv;
    /// Delivery-time-ordered queue (multimap key = steady-clock
    /// microseconds at which the frame becomes deliverable).
    std::multimap<int64_t, std::string> queue GUARDED_BY(mu);
    FrameHandler handler GUARDED_BY(mu);
    bool stop GUARDED_BY(mu) = false;
    std::thread worker;
  };

  void WorkerLoop(const std::shared_ptr<Endpoint>& endpoint)
      EXCLUDES(mu_, idle_mu_);
  /// Release-decrements active_ by `n`, waking idle waiters at zero.
  void FinishActive(int64_t n) EXCLUDES(idle_mu_);

  const TransportOptions options_;
  FaultInjector injector_;
  /// Endpoint registry + per-instance counters. Held only for map
  /// lookups and counter bumps — never across a handler or a queue
  /// operation.
  mutable Mutex mu_{LockRank::kNetTransport, "net.transport"};
  std::map<EndpointId, std::shared_ptr<Endpoint>> endpoints_ GUARDED_BY(mu_);
  TransportStats stats_ GUARDED_BY(mu_);
  std::mt19937_64 jitter_rng_ GUARDED_BY(mu_){0x6A09E667F3BCC909ull};
  /// Queued frames + running handlers. The final release-decrement by a
  /// worker pairs with WaitIdle's acquire-load: observing 0 after it
  /// means every handler effect is visible.
  std::atomic<int64_t> active_{0};
  /// Idle-waiter handshake only; active_ itself is an atomic read
  /// outside any lock.
  Mutex idle_mu_{LockRank::kNetIdle, "net.idle"};
  CondVar idle_cv_;
};

}  // namespace mdv::net

#endif  // MDV_NET_TRANSPORT_H_
