#include "net/reliable.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mdv::net {

namespace {

/// Process-wide mdv.net.* handles for the delivery protocol, resolved
/// once. These aggregate across links; LinkStats is the per-instance
/// view.
struct LinkMetrics {
  obs::MetricsRegistry& r = obs::DefaultMetrics();
  obs::Counter& enqueued = r.GetCounter("mdv.net.enqueued_total");
  obs::Counter& delivered = r.GetCounter("mdv.net.delivered_total");
  obs::Counter& redelivered = r.GetCounter("mdv.net.redelivered_total");
  obs::Counter& acked = r.GetCounter("mdv.net.acked_total");
  obs::Counter& dedup = r.GetCounter("mdv.net.dedup_suppressed_total");
  obs::Counter& dead = r.GetCounter("mdv.net.dead_lettered_total");
  obs::Counter& decode_errors = r.GetCounter("mdv.net.decode_errors_total");
  /// Frames a receiver's durability journal refused (left un-acked for
  /// redelivery). Nonzero and climbing means the WAL cannot write.
  obs::Counter& journal_rejects = r.GetCounter("mdv.net.journal_rejects_total");
  /// Depth gauges (summed across links): frames awaiting ack on the
  /// sender side, and notifications parked in receiver hold-back queues
  /// waiting for a sequence gap to fill. Either one climbing without
  /// draining means the pipeline is backing up.
  obs::Gauge& unacked_depth = r.GetGauge("mdv.net.unacked_depth");
  obs::Gauge& holdback_depth = r.GetGauge("mdv.net.holdback_depth");

  static LinkMetrics& Get() {
    static LinkMetrics& metrics = *new LinkMetrics();
    return metrics;
  }
};

int64_t NowUs() { return obs::NowNs() / 1000; }

}  // namespace

ReliableLink::ReliableLink(Transport* transport, ReliableOptions options)
    : transport_(transport), options_(options) {
  retransmitter_ = std::thread([this] { RetransmitLoop(); });
}

ReliableLink::~ReliableLink() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    scan_cv_.NotifyAll();
    settled_cv_.NotifyAll();
  }
  if (retransmitter_.joinable()) retransmitter_.join();
  // Unbind every endpoint we own so transport workers stop calling
  // back into this (about to vanish) object.
  std::vector<EndpointId> endpoints;
  {
    MutexLock lock(mu_);
    for (const auto& [lmr, receiver] : receivers_) endpoints.push_back(lmr);
    for (const auto& [sender, retiring] : senders_) {
      endpoints.push_back(AckEndpoint(sender));
    }
    for (uint64_t sender : released_) endpoints.push_back(AckEndpoint(sender));
  }
  for (EndpointId endpoint : endpoints) transport_->Unbind(endpoint);
}

void ReliableLink::EnsureSenderLocked(uint64_t sender) {
  auto [it, inserted] = senders_.emplace(sender, false);
  if (!inserted) return;
  next_sender_ = std::max(next_sender_, sender + 1);
  // Bind may fail only if the ack endpoint id collides with a bound
  // LMR, which the disjoint id spaces rule out.
  (void)transport_->Bind(AckEndpoint(sender),
                         [this](std::string frame) {
                           OnAckFrame(std::move(frame));
                         });
}

uint64_t ReliableLink::RegisterSender() {
  MutexLock lock(mu_);
  const uint64_t sender = next_sender_++;
  EnsureSenderLocked(sender);
  return sender;
}

Status ReliableLink::BindReceiver(pubsub::LmrId lmr,
                                  NotificationHandler handler,
                                  ReceiverDurability durability) {
  if (lmr < 0) {
    return Status::InvalidArgument(
        "delivery requires non-negative LMR ids, got " +
        std::to_string(lmr));
  }
  // Install the receiver state — handler, journal, restored flows —
  // before the endpoint binds: the first frame may arrive the moment
  // Bind returns, and it must see the crash-time dedup state, not an
  // empty flow map that would let an already-applied retransmit
  // through.
  int64_t seeded_holdback = 0;
  {
    MutexLock lock(mu_);
    // Refuse an occupied id before touching any state: the live
    // receiver's handler, journal and flows must survive the refusal.
    if (receivers_.count(lmr) != 0) {
      return Status::AlreadyExists("LMR " + std::to_string(lmr) +
                                   " already has a bound receiver");
    }
    Receiver& receiver = receivers_[lmr];
    receiver.handler = std::move(handler);
    receiver.journal = std::move(durability.journal);
    receiver.flows.clear();
    if (!receiver.journal) {
      // A volatile receiver starts where its senders are: a frame
      // stamped before this bind was addressed to an earlier receiver
      // of the id and is lost with it, so it dedups away instead of
      // parking the flow's next frame in hold-back for good.
      for (const auto& [key, next] : next_seq_) {
        if (key.lmr == lmr) receiver.flows[key.sender].applied_through = next;
      }
    }
    for (FlowRestore& restore : durability.flows) {
      Flow& flow = receiver.flows[restore.sender];
      flow.applied_through = restore.applied_through;
      flow.holdback = std::move(restore.holdback);
      seeded_holdback += static_cast<int64_t>(flow.holdback.size());
      // If the sender side of this flow restarted too (whole-process
      // crash: its in-memory counter reset to zero), resume numbering
      // above the receiver's watermark — otherwise every post-restart
      // publish would dedup away as a stale sequence.
      uint64_t watermark = flow.applied_through;
      if (!flow.holdback.empty()) {
        watermark = std::max(watermark, flow.holdback.rbegin()->first);
      }
      uint64_t& next = next_seq_[FlowKey{restore.sender, lmr}];
      next = std::max(next, watermark);
    }
  }
  if (seeded_holdback != 0) {
    LinkMetrics::Get().holdback_depth.Add(seeded_holdback);
  }
  Status bound = transport_->Bind(lmr, [this, lmr](std::string frame) {
    OnReceiverFrame(lmr, std::move(frame));
  });
  if (!bound.ok()) {
    MutexLock lock(mu_);
    receivers_.erase(lmr);
    if (seeded_holdback != 0) {
      LinkMetrics::Get().holdback_depth.Add(-seeded_holdback);
    }
    return bound;
  }
  return Status::OK();
}

void ReliableLink::UnbindReceiver(pubsub::LmrId lmr) {
  // Unbind first: it joins the endpoint worker, so after this no
  // OnReceiverFrame for `lmr` is running or will run — then the flow
  // state can go.
  transport_->Unbind(lmr);
  int64_t forgotten = 0;
  int64_t dropped = 0;
  {
    MutexLock lock(mu_);
    auto it = receivers_.find(lmr);
    if (it == receivers_.end()) return;
    for (const auto& [sender, flow] : it->second.flows) {
      forgotten += static_cast<int64_t>(flow.holdback.size());
    }
    const bool volatile_receiver = !it->second.journal;
    receivers_.erase(it);
    if (volatile_receiver) {
      std::vector<uint64_t> senders;
      for (auto& [key, seqs] : pending_) {
        if (key.lmr != lmr || seqs.empty()) continue;
        dropped += static_cast<int64_t>(seqs.size());
        seqs.clear();
        senders.push_back(key.sender);
      }
      pending_count_ -= static_cast<size_t>(dropped);
      if (pending_count_ == 0) settled_cv_.NotifyAll();
      for (uint64_t sender : senders) ReleaseIfDrainedLocked(sender);
    }
  }
  LinkMetrics::Get().holdback_depth.Add(-forgotten);
  LinkMetrics::Get().unacked_depth.Add(-dropped);
}

void ReliableLink::RetireSender(uint64_t sender) {
  MutexLock lock(mu_);
  auto it = senders_.find(sender);
  if (it == senders_.end()) return;
  it->second = true;
  ReleaseIfDrainedLocked(sender);  // Else the last ack or dead letter does.
}

void ReliableLink::ReleaseIfDrainedLocked(uint64_t sender) {
  auto it = senders_.find(sender);
  if (it == senders_.end() || !it->second) return;
  const FlowKey first{sender, std::numeric_limits<pubsub::LmrId>::min()};
  const FlowKey next{sender + 1, first.lmr};
  const auto begin = pending_.lower_bound(first);
  const auto end = pending_.lower_bound(next);
  if (std::any_of(begin, end, [](const auto& flow) {
        return !flow.second.empty();
      })) {
    return;
  }
  pending_.erase(begin, end);
  next_seq_.erase(next_seq_.lower_bound(first), next_seq_.lower_bound(next));
  // The receivers' ends of its flows go too: nothing will be sent on
  // them again, and a late retransmit copy is dropped on arrival.
  int64_t parked = 0;
  for (auto& [lmr, receiver] : receivers_) {
    auto flow = receiver.flows.find(sender);
    if (flow == receiver.flows.end()) continue;
    parked += static_cast<int64_t>(flow->second.holdback.size());
    receiver.flows.erase(flow);
  }
  LinkMetrics::Get().holdback_depth.Add(-parked);
  senders_.erase(it);
  released_.push_back(sender);
  scan_cv_.NotifyAll();
}

Status ReliableLink::Publish(uint64_t sender, const pubsub::Notification& note) {
  LinkMetrics& metrics = LinkMetrics::Get();
  const FlowKey key{sender, note.lmr};
  std::string frame;
  uint64_t sequence = 0;
  {
    MutexLock lock(mu_);
    if (stop_) return Status::Internal("link is shutting down");
    EnsureSenderLocked(sender);
    if (!transport_->IsBound(note.lmr)) {
      return Status::NotFound("no receiver bound for LMR " +
                              std::to_string(note.lmr));
    }
    sequence = ++next_seq_[key];
    NotifyFrame notify;
    notify.sender = sender;
    notify.sequence = sequence;
    notify.notification = note;
    frame = EncodeNotifyFrame(notify);
    Pending pending;
    pending.frame = frame;
    pending.lmr = note.lmr;
    pending.attempts = 1;
    pending.backoff_us = options_.retransmit_timeout_us;
    pending.next_retry_us = NowUs() + options_.retransmit_timeout_us;
    pending.trace = note.trace;
    pending_[key].emplace(sequence, std::move(pending));
    ++pending_count_;
    ++stats_.published;
    scan_cv_.NotifyAll();
  }
  metrics.enqueued.Increment();
  metrics.unacked_depth.Add(1);
  obs::FlightRecorder::Default().Record(
      obs::FlightEventType::kEnqueue, static_cast<int64_t>(sender),
      static_cast<int64_t>(note.lmr), static_cast<int64_t>(sequence));
  {
    obs::ScopedSpan span("net.enqueue", note.trace);
    span.AddAttribute("sender", static_cast<int64_t>(sender));
    span.AddAttribute("seq", static_cast<int64_t>(sequence));
    span.AddAttribute("lmr", static_cast<int64_t>(note.lmr));
    span.AddAttribute("bytes", static_cast<int64_t>(frame.size()));
  }
  // A failed send (queue overflow, fault drop is invisible anyway) is
  // not an error up here: the frame stays pending and the retransmit
  // timer redelivers it.
  (void)transport_->Send(note.lmr, std::move(frame));
  return Status::OK();
}

void ReliableLink::OnReceiverFrame(pubsub::LmrId lmr, std::string frame) {
  LinkMetrics& metrics = LinkMetrics::Get();
  Result<DecodedFrame> decoded = DecodeFrame(frame);
  if (!decoded.ok() || decoded.value().type != FrameType::kNotify) {
    MutexLock lock(mu_);
    ++stats_.decode_errors;
    metrics.decode_errors.Increment();
    return;
  }
  NotifyFrame notify = std::move(decoded.value().notify);
  const uint64_t sequence = notify.sequence;
  const uint64_t sender = notify.sender;
  const obs::SpanContext trace = notify.notification.trace;

  // First pass under the lock: classify the frame and pick up the
  // journal. New frames are NOT inserted yet — the journal write must
  // come first, and it does file I/O we refuse to do under mu_.
  bool duplicate = false;
  ReceiverJournal journal;
  {
    MutexLock lock(mu_);
    auto it = receivers_.find(lmr);
    if (it == receivers_.end()) return;  // Raced an UnbindReceiver.
    if (senders_.count(sender) == 0) {
      // Publish registers every sender before it sends, so this is a
      // late retransmit copy from a released sender.
      ++stats_.dedup_suppressed;
      metrics.dedup.Increment();
      return;
    }
    Flow& flow = it->second.flows[sender];
    duplicate = sequence <= flow.applied_through ||
                flow.holdback.count(sequence) != 0;
    if (!duplicate) journal = it->second.journal;
  }
  // Journal before ack: once the ack leaves, the sender forgets the
  // frame, so the only durable copy is ours. A journal failure drops
  // the frame un-acked — the retransmit timer redelivers it and the
  // journal gets another chance. Safe outside mu_ because the
  // transport runs this receiver's frames serially.
  if (!duplicate && journal) {
    Status journaled =
        journal(frame, sender, sequence, notify.notification.kind);
    if (!journaled.ok()) {
      metrics.journal_rejects.Increment();
      return;
    }
  }

  std::vector<pubsub::Notification> ready;
  NotificationHandler handler;
  int64_t holdback_delta = 0;
  {
    MutexLock lock(mu_);
    auto it = receivers_.find(lmr);
    if (it == receivers_.end()) return;  // Raced an UnbindReceiver.
    // A duplicate whose sender was released meanwhile has nothing to
    // apply and no ack endpoint; keep its erased flow erased.
    if (duplicate && senders_.count(sender) == 0) return;
    Flow& flow = it->second.flows[sender];
    if (duplicate) {
      ++stats_.dedup_suppressed;
    } else {
      flow.holdback.emplace(sequence, std::move(notify.notification));
    }
    // Release the contiguous prefix: reordering is absorbed here, and
    // the handler only ever sees publish order.
    while (!flow.holdback.empty() &&
           flow.holdback.begin()->first == flow.applied_through + 1) {
      ready.push_back(std::move(flow.holdback.begin()->second));
      flow.holdback.erase(flow.holdback.begin());
      ++flow.applied_through;
    }
    stats_.delivered += static_cast<int64_t>(ready.size());
    handler = it->second.handler;
    // One insert (unless duplicate) minus the released prefix: the net
    // change of this receiver's hold-back population.
    holdback_delta =
        (duplicate ? 0 : 1) - static_cast<int64_t>(ready.size());
  }
  if (duplicate) metrics.dedup.Increment();
  metrics.delivered.Add(static_cast<int64_t>(ready.size()));
  metrics.holdback_depth.Add(holdback_delta);
  obs::FlightRecorder::Default().Record(
      obs::FlightEventType::kDeliver, static_cast<int64_t>(sender),
      static_cast<int64_t>(lmr), static_cast<int64_t>(sequence));
  {
    obs::ScopedSpan span("net.deliver", trace);
    span.AddAttribute("sender", static_cast<int64_t>(sender));
    span.AddAttribute("seq", static_cast<int64_t>(sequence));
    span.AddAttribute("lmr", static_cast<int64_t>(lmr));
    if (duplicate) span.AddAttribute("duplicate", "true");
    span.AddAttribute("released", static_cast<int64_t>(ready.size()));
  }
  // Ack every arrival, duplicates included — the original ack may be
  // the frame the network lost. The ack itself crosses the same faulty
  // transport; a lost ack simply means one more redelivery.
  (void)transport_->Send(AckEndpoint(sender),
                         EncodeAckFrame(AckFrame{sender, sequence, lmr}));
  if (handler) {
    for (const pubsub::Notification& note : ready) handler(note);
  }
}

void ReliableLink::OnAckFrame(std::string frame) {
  LinkMetrics& metrics = LinkMetrics::Get();
  Result<DecodedFrame> decoded = DecodeFrame(frame);
  if (!decoded.ok() || decoded.value().type != FrameType::kAck) {
    MutexLock lock(mu_);
    ++stats_.decode_errors;
    metrics.decode_errors.Increment();
    return;
  }
  const AckFrame& ack = decoded.value().ack;
  bool cleared = false;
  obs::SpanContext trace;
  {
    MutexLock lock(mu_);
    auto flow = pending_.find(FlowKey{ack.sender, ack.lmr});
    if (flow != pending_.end()) {
      auto it = flow->second.find(ack.sequence);
      if (it != flow->second.end()) {
        trace = it->second.trace;
        flow->second.erase(it);
        --pending_count_;
        ++stats_.acked;
        cleared = true;
        if (pending_count_ == 0) settled_cv_.NotifyAll();
        ReleaseIfDrainedLocked(ack.sender);
      }
    }
  }
  if (!cleared) return;  // Duplicate ack for an already-cleared frame.
  metrics.acked.Increment();
  metrics.unacked_depth.Add(-1);
  obs::ScopedSpan span("net.ack", trace);
  span.AddAttribute("sender", static_cast<int64_t>(ack.sender));
  span.AddAttribute("seq", static_cast<int64_t>(ack.sequence));
  span.AddAttribute("lmr", static_cast<int64_t>(ack.lmr));
}

void ReliableLink::RetransmitLoop() {
  LinkMetrics& metrics = LinkMetrics::Get();
  mu_.Lock();
  while (!stop_) {
    if (!released_.empty()) {
      // Unbinding joins the ack endpoint's worker thread, which the
      // ack handler that released the sender runs on — so the unbind
      // happens here, outside every handler.
      std::vector<uint64_t> released;
      released.swap(released_);
      mu_.Unlock();
      for (uint64_t sender : released) transport_->Unbind(AckEndpoint(sender));
      mu_.Lock();
      continue;
    }
    if (pending_count_ == 0) {
      while (!stop_ && pending_count_ == 0 && released_.empty()) {
        scan_cv_.Wait(mu_);
      }
      continue;
    }
    scan_cv_.WaitFor(mu_, options_.scan_interval_us);
    if (stop_) break;
    const int64_t now = NowUs();
    struct Resend {
      uint64_t sender;
      pubsub::LmrId lmr;
      std::string frame;
      obs::SpanContext trace;
      uint64_t sequence;
      int attempt;
    };
    struct DeadLetter {
      uint64_t sender;
      pubsub::LmrId lmr;
      uint64_t sequence;
      int attempts;
    };
    std::vector<Resend> resends;
    std::vector<DeadLetter> dead_letters;
    for (auto& [key, seqs] : pending_) {
      for (auto it = seqs.begin(); it != seqs.end();) {
        Pending& pending = it->second;
        if (pending.next_retry_us > now) {
          ++it;
          continue;
        }
        if (pending.attempts >= options_.max_attempts) {
          ++stats_.dead_lettered;
          dead_letters.push_back(
              DeadLetter{key.sender, pending.lmr, it->first,
                         pending.attempts});
          --pending_count_;
          it = seqs.erase(it);
          continue;
        }
        ++pending.attempts;
        ++stats_.redelivered;
        pending.backoff_us = std::min(
            static_cast<int64_t>(static_cast<double>(pending.backoff_us) *
                                 options_.backoff_factor),
            options_.max_backoff_us);
        pending.next_retry_us = now + pending.backoff_us;
        resends.push_back(Resend{key.sender, pending.lmr, pending.frame,
                                 pending.trace, it->first, pending.attempts});
        ++it;
      }
    }
    for (const DeadLetter& dead : dead_letters) {
      ReleaseIfDrainedLocked(dead.sender);
    }
    const bool settled = pending_count_ == 0;
    mu_.Unlock();
    metrics.dead.Add(static_cast<int64_t>(dead_letters.size()));
    metrics.redelivered.Add(static_cast<int64_t>(resends.size()));
    metrics.unacked_depth.Add(-static_cast<int64_t>(dead_letters.size()));
    if (settled) settled_cv_.NotifyAll();
    obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
    for (const DeadLetter& dead : dead_letters) {
      recorder.Record(obs::FlightEventType::kDeadLetter,
                      static_cast<int64_t>(dead.sender),
                      static_cast<int64_t>(dead.lmr),
                      static_cast<int64_t>(dead.sequence));
    }
    if (!dead_letters.empty()) {
      // A dead-lettered frame stalls its FIFO flow for good — dump the
      // recent pipeline history while it is still in the ring.
      recorder.AutoDump("dead_letter");
    }
    for (Resend& resend : resends) {
      recorder.Record(obs::FlightEventType::kRetransmit,
                      static_cast<int64_t>(resend.sender),
                      static_cast<int64_t>(resend.lmr),
                      static_cast<int64_t>(resend.attempt));
      {
        obs::ScopedSpan span("net.redeliver", resend.trace);
        span.AddAttribute("lmr", static_cast<int64_t>(resend.lmr));
        span.AddAttribute("seq", static_cast<int64_t>(resend.sequence));
        span.AddAttribute("attempt", static_cast<int64_t>(resend.attempt));
      }
      (void)transport_->Send(resend.lmr, std::move(resend.frame));
    }
    mu_.Lock();
  }
  mu_.Unlock();
}

bool ReliableLink::WaitSettled(int64_t timeout_us) {
  const int64_t deadline = NowUs() + timeout_us;
  {
    MutexLock lock(mu_);
    while (pending_count_ != 0) {
      const int64_t wait_us = deadline - NowUs();
      if (wait_us <= 0) return false;
      settled_cv_.WaitFor(mu_, wait_us);
    }
  }
  // Pending empty means no further *first* deliveries; the transport may
  // still be draining duplicates and acks — wait those out too so the
  // caller can safely read receiver-side state.
  const int64_t remaining = std::max<int64_t>(0, deadline - NowUs());
  return transport_->WaitIdle(remaining);
}

LinkStats ReliableLink::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t ReliableLink::PendingCount() const {
  MutexLock lock(mu_);
  return pending_count_;
}

std::vector<FlowRestore> ReliableLink::ReceiverFlowState(
    pubsub::LmrId lmr) const {
  std::vector<FlowRestore> flows;
  MutexLock lock(mu_);
  auto it = receivers_.find(lmr);
  if (it == receivers_.end()) return flows;
  for (const auto& [sender, flow] : it->second.flows) {
    FlowRestore restore;
    restore.sender = sender;
    restore.applied_through = flow.applied_through;
    restore.holdback = flow.holdback;
    flows.push_back(std::move(restore));
  }
  return flows;
}

size_t ReliableLink::HoldbackDepth() const {
  MutexLock lock(mu_);
  size_t depth = 0;
  for (const auto& [lmr, receiver] : receivers_) {
    for (const auto& [sender, flow] : receiver.flows) {
      depth += flow.holdback.size();
    }
  }
  return depth;
}

}  // namespace mdv::net
