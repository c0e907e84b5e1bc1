#ifndef MDV_NET_RELIABLE_H_
#define MDV_NET_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>

#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "pubsub/notification.h"

namespace mdv::net {

/// One (sender → receiver) flow's dedup/reorder state, exportable for
/// persistence and re-importable on restart. A receiver seeded with
/// the state it held at crash time neither re-applies a notification
/// the sender retransmits (sequence <= applied_through) nor loses one
/// that was parked out-of-order in the hold-back queue.
struct FlowRestore {
  uint64_t sender = 0;
  uint64_t applied_through = 0;
  std::map<uint64_t, pubsub::Notification> holdback;
};

/// Durability hook for one receiver: called with the raw notify frame
/// BEFORE the link acks or applies it. A non-OK return aborts
/// processing of the frame entirely — no ack, no dedup insert, no
/// handler call — so the sender's retransmit timer redelivers it and
/// the journal gets another chance. This ordering is what makes the
/// protocol exactly-once across receiver crashes: a frame is acked
/// only once it is journaled, and the journal replay restores the
/// dedup state that absorbs the retransmits of anything acked.
/// `kind` is the decoded notification kind, so hooks can decline to
/// journal snapshot-stream frames (a crashed join is abandoned and
/// restarted, never replayed) by returning OK without writing.
using ReceiverJournal = std::function<Status(
    const std::string& frame, uint64_t sender, uint64_t sequence,
    pubsub::NotificationKind kind)>;

/// Per-receiver durability wiring passed to BindReceiver. Default
/// (empty) means a volatile receiver: no journal, fresh flows.
struct ReceiverDurability {
  ReceiverJournal journal;
  std::vector<FlowRestore> flows;
};

/// Tuning of the at-least-once delivery protocol.
struct ReliableOptions {
  /// First redelivery fires this long after the original send.
  int64_t retransmit_timeout_us = 5000;
  /// Each further attempt multiplies the timeout by this factor...
  double backoff_factor = 2.0;
  /// ...capped here.
  int64_t max_backoff_us = 200000;
  /// Total send attempts (original + redeliveries) before a frame is
  /// dead-lettered. At 10% frame loss in both directions the chance of
  /// exhausting 12 attempts is ~1e-9; a flow that does lose a frame for
  /// good stalls at that sequence number (FIFO cannot skip), which the
  /// dead_lettered counter makes visible.
  int max_attempts = 12;
  /// How often the retransmit scanner wakes when deliveries are
  /// pending.
  int64_t scan_interval_us = 1000;
};

/// Counter snapshot of one link (the process-wide mdv.net.* registry
/// metrics aggregate across links).
struct LinkStats {
  int64_t published = 0;         ///< Notifications accepted from senders.
  int64_t delivered = 0;         ///< Notifications handed to receivers.
  int64_t redelivered = 0;       ///< Retransmitted notify frames.
  int64_t acked = 0;             ///< Pending entries cleared by an ack.
  int64_t dedup_suppressed = 0;  ///< Duplicate frames absorbed by seq dedup.
  int64_t dead_lettered = 0;     ///< Frames abandoned after the retry cap.
  int64_t decode_errors = 0;     ///< Frames the wire codec rejected.
};

/// At-least-once, in-order notification delivery over an unreliable
/// Transport — the R-GMA-style "republish on failure" substrate under
/// the MDV pub/sub layer:
///
///  - every publish is stamped with a monotonic sequence number in its
///    (sender, lmr) flow and encoded into a notify frame,
///  - unacked frames are retransmitted on a timeout with exponential
///    backoff until the retry cap,
///  - the receiver acks every arriving frame, deduplicates by sequence
///    number and releases notifications to the handler strictly in
///    sequence order (a hold-back queue absorbs reordering), so the
///    handler sees each notification exactly once, in publish order,
///    no matter what the transport dropped, duplicated or reordered.
///
/// Receivers bind their LmrId as the transport endpoint; each sender
/// gets a derived ack endpoint (see AckEndpoint). LMR ids must be
/// non-negative for the two id spaces to stay disjoint.
class ReliableLink {
 public:
  using NotificationHandler =
      std::function<void(const pubsub::Notification&)>;

  ReliableLink(Transport* transport, ReliableOptions options = {});
  ~ReliableLink();

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// Allocates a sender id (one per MDP) and binds its ack endpoint.
  uint64_t RegisterSender() EXCLUDES(mu_);

  /// Binds the notification handler of an LMR. The handler runs where
  /// the transport runs the endpoint's frames, serially per LMR.
  /// `durability` optionally journals every new frame pre-ack and seeds
  /// the flow state a previous incarnation persisted (see
  /// ReceiverDurability).
  /// AlreadyExists, with the bound receiver left intact, if `lmr` is
  /// already bound.
  Status BindReceiver(pubsub::LmrId lmr, NotificationHandler handler,
                      ReceiverDurability durability = {}) EXCLUDES(mu_);

  /// Unbinds an LMR; linearizes against in-flight handler runs (see
  /// Transport::Unbind) and forgets its flow state. For a volatile
  /// receiver (no journal) the senders also drop their unacked frames
  /// to it: like any frame to a detached LMR they are lost, not
  /// retransmitted to a dead endpoint. A durable receiver's frames stay
  /// pending for its restart.
  void UnbindReceiver(pubsub::LmrId lmr) EXCLUDES(mu_);

  /// Releases `sender` once every frame it published is acked or
  /// dead-lettered: erases its sequence and pending state and unbinds
  /// its ack endpoint (on the retransmit thread, shortly after). For
  /// short-lived senders (one per snapshot serve); the sender must not
  /// publish after this call.
  void RetireSender(uint64_t sender) EXCLUDES(mu_);

  /// Stamps, encodes and sends `note` to `note.lmr`, tracking it for
  /// redelivery until acked. NotFound if no receiver is bound. Senders
  /// unknown to RegisterSender are registered implicitly.
  Status Publish(uint64_t sender, const pubsub::Notification& note)
      EXCLUDES(mu_);

  /// Blocks until every published frame is acked or dead-lettered and
  /// the transport is idle (all queues drained, no handler running), or
  /// the timeout elapses. After a true return the receivers' state is
  /// safe to read from this thread.
  bool WaitSettled(int64_t timeout_us) EXCLUDES(mu_);

  /// The stats/depth accessors copy under mu_, so a caller already
  /// holding it (i.e. code inside this class) must read the fields
  /// directly instead — same pattern as Transport::WaitIdle, enforced
  /// at compile time by EXCLUDES and at runtime by the rank checker.
  LinkStats stats() const EXCLUDES(mu_);

  /// Unacked frames currently awaiting ack or retransmission.
  size_t PendingCount() const EXCLUDES(mu_);

  /// Notifications parked in receiver hold-back queues across all
  /// flows, waiting for a sequence gap to fill.
  size_t HoldbackDepth() const EXCLUDES(mu_);

  /// Copies `lmr`'s current flow state for checkpointing. Only
  /// meaningful when no frame for `lmr` is in flight (the caller
  /// quiesces first, e.g. via WaitSettled); empty if unbound.
  std::vector<FlowRestore> ReceiverFlowState(pubsub::LmrId lmr) const
      EXCLUDES(mu_);

  /// The transport endpoint that carries acks back to `sender`.
  static EndpointId AckEndpoint(uint64_t sender) {
    return -static_cast<EndpointId>(sender) - 1;
  }

 private:
  struct FlowKey {
    uint64_t sender = 0;
    pubsub::LmrId lmr = -1;
    bool operator<(const FlowKey& other) const {
      return std::tie(sender, lmr) < std::tie(other.sender, other.lmr);
    }
  };

  struct Pending {
    std::string frame;
    pubsub::LmrId lmr = -1;
    int attempts = 1;
    int64_t next_retry_us = 0;
    int64_t backoff_us = 0;
    obs::SpanContext trace;
  };

  /// Per-(sender → this receiver) dedup and reordering state.
  struct Flow {
    uint64_t applied_through = 0;  ///< Highest contiguously applied seq.
    std::map<uint64_t, pubsub::Notification> holdback;  ///< Out-of-order.
  };

  struct Receiver {
    NotificationHandler handler;
    ReceiverJournal journal;
    std::map<uint64_t, Flow> flows;  // Keyed by sender.
  };

  void EnsureSenderLocked(uint64_t sender) REQUIRES(mu_);
  /// If `sender` is retiring and has nothing pending, erases its state
  /// and queues its ack endpoint for the retransmit thread to unbind.
  void ReleaseIfDrainedLocked(uint64_t sender) REQUIRES(mu_);
  void OnReceiverFrame(pubsub::LmrId lmr, std::string frame) EXCLUDES(mu_);
  void OnAckFrame(std::string frame) EXCLUDES(mu_);
  void RetransmitLoop() EXCLUDES(mu_);

  Transport* transport_;
  const ReliableOptions options_;
  /// kNetLink ranks outside the transport locks: Publish checks
  /// IsBound and EnsureSenderLocked binds the ack endpoint while
  /// holding mu_, so link → transport nesting is the sanctioned order.
  mutable Mutex mu_{LockRank::kNetLink, "net.link"};
  CondVar settled_cv_;
  CondVar scan_cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t next_sender_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, bool> senders_ GUARDED_BY(mu_);  // Value: retiring.
  /// Released senders whose ack endpoints await unbinding.
  std::vector<uint64_t> released_ GUARDED_BY(mu_);
  std::map<FlowKey, uint64_t> next_seq_ GUARDED_BY(mu_);
  std::map<FlowKey, std::map<uint64_t, Pending>> pending_ GUARDED_BY(mu_);
  size_t pending_count_ GUARDED_BY(mu_) = 0;
  std::map<pubsub::LmrId, Receiver> receivers_ GUARDED_BY(mu_);
  LinkStats stats_ GUARDED_BY(mu_);
  std::thread retransmitter_;
};

}  // namespace mdv::net

#endif  // MDV_NET_RELIABLE_H_
