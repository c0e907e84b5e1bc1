#include "mdv/network.h"

#include "obs/metrics.h"

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

  static NetworkMetrics& Get() {
    static NetworkMetrics& metrics = *new NetworkMetrics();
    return metrics;
  }
};

std::unique_ptr<net::Transport> MakeTransport(const NetworkOptions& options) {
  if (options.asynchronous) {
    return std::make_unique<net::InProcessTransport>(options.transport);
  }
  return std::make_unique<net::InlineTransport>();
}

}  // namespace

Network::Network(NetworkOptions options)
    : transport_(MakeTransport(options)),
      link_(transport_.get(), options.reliability) {}

Network::~Network() = default;

Status Network::Attach(pubsub::LmrId lmr, Handler handler,
                       net::ReceiverDurability durability) {
  // The link has already decoded, deduplicated and ordered the stream
  // by the time the handler runs, serially per LMR.
  return link_.BindReceiver(lmr, std::move(handler), std::move(durability));
}

void Network::Deliver(const pubsub::Notification& notification,
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
  if (!link_.Publish(sender, notification).ok()) {
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

Status Network::BindSnapshotServer(uint64_t sender, SnapshotServer server) {
  // The control endpoint is a plain transport endpoint: requests are
  // decoded and handed to the server, which publishes chunks back
  // through the reliable link (a dedicated sender flow per serve gives
  // them ack/retransmit reliability).
  return transport_->Bind(
      net::SnapshotControlEndpoint(sender),
      [server = std::move(server)](std::string frame) {
        Result<net::DecodedFrame> decoded = net::DecodeFrame(frame);
        if (!decoded.ok() ||
            decoded.value().type != net::FrameType::kSnapshotRequest) {
          return;  // Corrupt or misrouted; the joiner retries.
        }
        server(decoded.value().snapshot_request);
      });
}

}  // namespace mdv
