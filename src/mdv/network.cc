#include "mdv/network.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdv {

namespace {

/// Registry handles of the (simulated) network, resolved once. These
/// aggregate across Network instances; Network::stats() remains the
/// per-instance view.
struct NetworkMetrics {
  obs::MetricsRegistry& r = obs::DefaultMetrics();
  obs::Counter& messages = r.GetCounter("mdv.network.messages_total");
  obs::Counter& resources = r.GetCounter("mdv.network.resources_shipped_total");
  obs::Counter& undeliverable = r.GetCounter("mdv.network.undeliverable_total");
  obs::Histogram& deliver_us = r.GetHistogram("mdv.network.deliver_us");

  static NetworkMetrics& Get() {
    static NetworkMetrics& metrics = *new NetworkMetrics();
    return metrics;
  }
};

const char* KindName(pubsub::NotificationKind kind) {
  switch (kind) {
    case pubsub::NotificationKind::kInsert:
      return "insert";
    case pubsub::NotificationKind::kUpdate:
      return "update";
    case pubsub::NotificationKind::kRemove:
      return "remove";
    case pubsub::NotificationKind::kSnapshotChunk:
      return "snapshot_chunk";
    case pubsub::NotificationKind::kSnapshotDone:
      return "snapshot_done";
  }
  return "?";
}

}  // namespace

Network::Network(NetworkOptions options) {
  if (options.asynchronous) async_ = std::make_unique<Async>(options);
}

Network::~Network() = default;

uint64_t Network::RegisterSender() {
  if (async_ != nullptr) return async_->link.RegisterSender();
  MutexLock lock(mutex_);
  return next_sync_sender_++;
}

void Network::Attach(pubsub::LmrId lmr, Handler handler,
                     net::ReceiverDurability durability) {
  if (async_ != nullptr) {
    // In async mode the LMR handler runs on the endpoint's transport
    // thread, serially per LMR; the reliable link has already decoded,
    // deduplicated and ordered the notification stream.
    Status bound = async_->link.BindReceiver(lmr, std::move(handler),
                                             std::move(durability));
    if (!bound.ok()) {
      MDV_LOG(Error) << "attach of lmr " << lmr << " refused: " << bound;
    }
    return;
  }
  MutexLock lock(mutex_);
  auto endpoint = std::make_shared<Endpoint>();
  endpoint->handler = std::move(handler);
  handlers_[lmr] = std::move(endpoint);
}

void Network::Detach(pubsub::LmrId lmr) {
  if (async_ != nullptr) {
    async_->link.UnbindReceiver(lmr);
    return;
  }
  MutexLock lock(mutex_);
  auto it = handlers_.find(lmr);
  if (it == handlers_.end()) return;
  std::shared_ptr<Endpoint> endpoint = std::move(it->second);
  handlers_.erase(it);
  // Linearize against in-flight delivery: wait until no *other* thread
  // is inside the handler. Deliveries by this thread are necessarily
  // re-entrant (the handler detaching itself) — waiting for those would
  // deadlock, and the guarantee then holds from the handler's return.
  const std::thread::id self = std::this_thread::get_id();
  while (std::any_of(
      endpoint->delivering.begin(), endpoint->delivering.end(),
      [&](const std::thread::id& id) { return id != self; })) {
    detach_cv_.Wait(mutex_);
  }
}

void Network::Deliver(const pubsub::Notification& notification,
                      uint64_t sender) {
  if (async_ != nullptr) {
    DeliverAsync(notification, sender);
    return;
  }
  DeliverSync(notification);
}

void Network::DeliverSync(const pubsub::Notification& notification) {
  NetworkMetrics& metrics = NetworkMetrics::Get();
  // Parent the delivery span to the correlation context carried on the
  // message (the originating MDP operation), falling back to this
  // thread's current span, so the whole publish → deliver → apply chain
  // is one trace.
  obs::ScopedSpan span("network.deliver", notification.trace,
                       &metrics.deliver_us);
  span.AddAttribute("lmr", static_cast<int64_t>(notification.lmr));
  span.AddAttribute("kind", KindName(notification.kind));
  span.AddAttribute("resources",
                    static_cast<int64_t>(notification.resources.size()));

  // Copy the handler out so it runs unlocked (it may re-enter the
  // network, and holding the lock across an arbitrary LMR callback
  // would serialize all deliveries). The endpoint's delivering list
  // keeps Detach honest about the in-flight call.
  Handler handler;
  std::shared_ptr<Endpoint> endpoint;
  {
    MutexLock lock(mutex_);
    ++stats_.messages;
    stats_.resources_shipped +=
        static_cast<int64_t>(notification.resources.size());
    auto it = handlers_.find(notification.lmr);
    if (it == handlers_.end()) {
      ++stats_.undeliverable;
    } else {
      endpoint = it->second;
      handler = endpoint->handler;
      endpoint->delivering.push_back(std::this_thread::get_id());
    }
  }
  metrics.messages.Increment();
  metrics.resources.Add(static_cast<int64_t>(notification.resources.size()));
  if (!handler) {
    metrics.undeliverable.Increment();
    span.AddAttribute("undeliverable", "true");
    return;
  }
  handler(notification);
  {
    MutexLock lock(mutex_);
    auto entry = std::find(endpoint->delivering.begin(),
                           endpoint->delivering.end(),
                           std::this_thread::get_id());
    if (entry != endpoint->delivering.end()) endpoint->delivering.erase(entry);
  }
  detach_cv_.NotifyAll();
}

void Network::DeliverAsync(const pubsub::Notification& notification,
                           uint64_t sender) {
  NetworkMetrics& metrics = NetworkMetrics::Get();
  {
    MutexLock lock(mutex_);
    ++stats_.messages;
    stats_.resources_shipped +=
        static_cast<int64_t>(notification.resources.size());
  }
  metrics.messages.Increment();
  metrics.resources.Add(static_cast<int64_t>(notification.resources.size()));
  const Status sent = async_->link.Publish(sender, notification);
  if (!sent.ok()) {
    MutexLock lock(mutex_);
    ++stats_.undeliverable;
    metrics.undeliverable.Increment();
  }
}

void Network::DeliverAll(
    const std::vector<pubsub::Notification>& notifications, uint64_t sender) {
  for (const pubsub::Notification& note : notifications) {
    Deliver(note, sender);
  }
}

std::vector<net::FlowRestore> Network::ReceiverFlowState(
    pubsub::LmrId lmr) const {
  if (async_ == nullptr) return {};
  return async_->link.ReceiverFlowState(lmr);
}

bool Network::WaitQuiescent(int64_t timeout_us) {
  if (async_ == nullptr) return true;
  return async_->link.WaitSettled(timeout_us);
}

net::LinkStats Network::link_stats() const {
  if (async_ == nullptr) return net::LinkStats{};
  return async_->link.stats();
}

net::TransportStats Network::transport_stats() const {
  if (async_ == nullptr) return net::TransportStats{};
  return async_->transport.stats();
}

void Network::set_fault_schedule(net::FaultInjector::Schedule schedule) {
  if (async_ == nullptr) return;
  async_->transport.set_fault_schedule(std::move(schedule));
}

Status Network::BindSnapshotServer(uint64_t sender, SnapshotServer server) {
  if (async_ != nullptr) {
    // The control endpoint is a plain transport endpoint: requests are
    // decoded on its worker thread and handed to the server, which
    // publishes chunks back through the reliable link (its dedicated
    // snapshot sender flow gives them ack/retransmit reliability).
    auto shared = std::make_shared<SnapshotServer>(std::move(server));
    return async_->transport.Bind(
        net::SnapshotControlEndpoint(sender), [shared](std::string frame) {
          Result<net::DecodedFrame> decoded = net::DecodeFrame(frame);
          if (!decoded.ok() ||
              decoded.value().type != net::FrameType::kSnapshotRequest) {
            return;  // Corrupt or misrouted; the joiner retries.
          }
          (*shared)(decoded.value().snapshot_request);
        });
  }
  MutexLock lock(mutex_);
  auto [it, inserted] = snapshot_servers_.emplace(
      sender, std::make_shared<SnapshotServer>(std::move(server)));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("snapshot server for sender " +
                                 std::to_string(sender) + " already bound");
  }
  return Status::OK();
}

void Network::UnbindSnapshotServer(uint64_t sender) {
  if (async_ != nullptr) {
    async_->transport.Unbind(net::SnapshotControlEndpoint(sender));
    return;
  }
  MutexLock lock(mutex_);
  snapshot_servers_.erase(sender);
}

Status Network::RequestSnapshot(uint64_t provider_sender,
                                const net::SnapshotRequestFrame& request) {
  if (async_ != nullptr) {
    // Fire-and-forget: the request frame itself is not retransmitted —
    // the joining LMR owns the retry loop (a lost request just times
    // the join attempt out).
    return async_->transport.Send(
        net::SnapshotControlEndpoint(provider_sender),
        net::EncodeSnapshotRequestFrame(request));
  }
  std::shared_ptr<SnapshotServer> server;
  {
    MutexLock lock(mutex_);
    auto it = snapshot_servers_.find(provider_sender);
    if (it != snapshot_servers_.end()) server = it->second;
  }
  if (server == nullptr) {
    return Status::NotFound("no snapshot server for sender " +
                            std::to_string(provider_sender));
  }
  // Serve inline, outside the bus lock: the server takes the provider
  // API lock in short sections and delivers chunks back through this
  // network.
  (*server)(request);
  return Status::OK();
}

}  // namespace mdv
