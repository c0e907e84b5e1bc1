#ifndef MDV_MDV_NETWORK_H_
#define MDV_MDV_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/reliable.h"
#include "net/transport.h"
#include "net/wire.h"
#include "pubsub/notification.h"

namespace mdv {

/// Traffic counters of the simulated network.
struct NetworkStats {
  int64_t messages = 0;
  int64_t resources_shipped = 0;
  int64_t undeliverable = 0;
};

/// How the network moves notifications.
struct NetworkOptions {
  /// Which transport carries the frames. false (default): the inline
  /// transport — lossless, delivered on the sending thread, so
  /// Deliver() returns after the LMR handler ran (deterministic). true:
  /// the threaded in-process transport — bounded queues on worker
  /// threads, optional latency and injected faults; call
  /// WaitQuiescent() before reading LMR state. Either way every
  /// notification is encoded by the wire codec and crosses the reliable
  /// link (sequence numbers, acks, redelivery, dedup).
  bool asynchronous = false;
  net::TransportOptions transport;
  net::ReliableOptions reliability;
};

/// In-process stand-in for the Internet between MDPs and LMRs: one
/// net::Transport under one net::ReliableLink (see DESIGN.md,
/// Transport). Paper deployments ship notifications over the network;
/// here every notification takes that path — encoded into a notify
/// frame, stamped in its (sender, LMR) flow, acked, deduplicated and
/// released in publish order — whichever transport carries the frames.
///
/// Thread-safe: Attach/Detach/Deliver/stats may be called concurrently
/// (multiple MDPs publishing from different threads share one network).
/// Handlers run with no network lock held, so a handler may re-enter
/// the network (e.g. attach another LMR). Detach linearizes against
/// in-flight delivery: once it returns, the detached handler is not
/// running and will never run again — except when a handler detaches
/// itself, where the guarantee holds from the handler's return.
class Network {
 public:
  using Handler = std::function<void(const pubsub::Notification&)>;

  explicit Network(NetworkOptions options = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Allocates a sender identity for one publishing MDP. Sequence
  /// numbers of the at-least-once protocol are per (sender, LMR) flow,
  /// so every MDP sharing a network must register itself.
  uint64_t RegisterSender() { return link_.RegisterSender(); }

  /// Releases a sender once its frames are acked (see
  /// net::ReliableLink::RetireSender).
  void RetireSender(uint64_t sender) { link_.RetireSender(sender); }

  /// Registers the delivery endpoint of an LMR. `durability` journals
  /// frames pre-ack and seeds crash-time flow state (see
  /// net::ReceiverDurability). AlreadyExists, with the bound LMR left
  /// intact, if `lmr` is already attached; InvalidArgument for a
  /// negative id.
  Status Attach(pubsub::LmrId lmr, Handler handler,
                net::ReceiverDurability durability = {});
  void Detach(pubsub::LmrId lmr) { link_.UnbindReceiver(lmr); }

  /// The at-least-once flow state of `lmr` for checkpointing — quiesce
  /// first (WaitQuiescent).
  std::vector<net::FlowRestore> ReceiverFlowState(pubsub::LmrId lmr) const {
    return link_.ReceiverFlowState(lmr);
  }

  /// Delivers one notification to its LMR; counts it as undeliverable
  /// if no endpoint is attached. `sender` identifies the publishing MDP
  /// flow (see RegisterSender); the default flow 0 is fine for tests
  /// and single-publisher setups.
  void Deliver(const pubsub::Notification& notification, uint64_t sender = 0)
      EXCLUDES(mutex_);

  /// Delivers a batch.
  void DeliverAll(const std::vector<pubsub::Notification>& notifications,
                  uint64_t sender = 0) EXCLUDES(mutex_);

  /// Blocks until every delivery settled (acked or dead-lettered,
  /// queues drained, no handler running). After a true return, LMR
  /// caches fed by this network are safe to read from the calling
  /// thread.
  bool WaitQuiescent(int64_t timeout_us = 30'000'000) {
    return link_.WaitSettled(timeout_us);
  }

  /// Snapshot of the counters (by value — the live struct is guarded).
  NetworkStats stats() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }
  void ResetStats() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    stats_ = NetworkStats{};
  }

  /// Delivery-protocol counters.
  net::LinkStats link_stats() const { return link_.stats(); }
  /// Transport counters.
  net::TransportStats transport_stats() const { return transport_->stats(); }

  /// Deterministic per-frame fault schedule for tests (see
  /// net::FaultInjector); the lossless inline transport ignores it.
  void set_fault_schedule(net::FaultInjector::Schedule schedule) {
    transport_->set_fault_schedule(std::move(schedule));
  }

  /// Handler for snapshot requests addressed to one sender (MDP). Runs
  /// with no network lock held, so the server may publish chunks back
  /// through Deliver.
  using SnapshotServer = std::function<void(const net::SnapshotRequestFrame&)>;

  /// Binds `sender`'s snapshot control endpoint (replica join protocol).
  Status BindSnapshotServer(uint64_t sender, SnapshotServer server);
  void UnbindSnapshotServer(uint64_t sender) {
    transport_->Unbind(net::SnapshotControlEndpoint(sender));
  }

  /// Sends one snapshot request to the control endpoint of
  /// `provider_sender` as a wire frame with no delivery guarantee — the
  /// joining LMR retries on timeout. NotFound if no server is bound.
  Status RequestSnapshot(uint64_t provider_sender,
                         const net::SnapshotRequestFrame& request) {
    return transport_->Send(net::SnapshotControlEndpoint(provider_sender),
                            net::EncodeSnapshotRequestFrame(request));
  }

 private:
  /// Held only around counter updates. MDP entry points (kMdpApi)
  /// deliver while holding their api lock, so it ranks just inside it.
  mutable Mutex mutex_{LockRank::kNetworkBus, "mdv.network"};
  NetworkStats stats_ GUARDED_BY(mutex_);
  std::unique_ptr<net::Transport> transport_;
  net::ReliableLink link_;  // Declared after transport_: destroyed first.
};

}  // namespace mdv

#endif  // MDV_MDV_NETWORK_H_
