#include "net/transport.h"

#include <random>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mdv::net {

namespace {

/// Process-wide mdv.net.* handles for the transport layer, resolved
/// once. These aggregate across transport instances; TransportStats
/// stays the per-instance view.
struct TransportMetrics {
  obs::MetricsRegistry& r = obs::DefaultMetrics();
  obs::Counter& sent = r.GetCounter("mdv.net.frames_sent_total");
  obs::Counter& delivered = r.GetCounter("mdv.net.frames_delivered_total");
  obs::Counter& dropped = r.GetCounter("mdv.net.dropped_total");
  obs::Gauge& queue_depth = r.GetGauge("mdv.net.queue_depth");

  static TransportMetrics& Get() {
    static TransportMetrics& metrics = *new TransportMetrics();
    return metrics;
  }
};

int64_t NowUs() { return obs::NowNs() / 1000; }

}  // namespace

InProcessTransport::InProcessTransport(TransportOptions options)
    : options_(options), injector_(options.faults) {}

InProcessTransport::~InProcessTransport() {
  std::vector<EndpointId> bound;
  {
    MutexLock lock(mu_);
    for (const auto& [id, endpoint] : endpoints_) bound.push_back(id);
  }
  for (EndpointId id : bound) Unbind(id);
}

Status InProcessTransport::Bind(EndpointId endpoint, FrameHandler handler) {
  MutexLock lock(mu_);
  if (endpoints_.count(endpoint) != 0) {
    return Status::AlreadyExists("transport endpoint " +
                                 std::to_string(endpoint) + " already bound");
  }
  auto state = std::make_shared<Endpoint>();
  {
    // The worker is not running yet, but the analysis (and the rank
    // checker) see handler as endpoint-lock state: initialize it as
    // such.
    MutexLock ep_lock(state->mu);
    state->handler = std::move(handler);
  }
  state->worker = std::thread([this, state] { WorkerLoop(state); });
  endpoints_.emplace(endpoint, std::move(state));
  return Status::OK();
}

void InProcessTransport::Unbind(EndpointId endpoint) {
  std::shared_ptr<Endpoint> state;
  {
    MutexLock lock(mu_);
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) return;
    state = std::move(it->second);
    endpoints_.erase(it);
  }
  {
    MutexLock lock(state->mu);
    state->stop = true;
    state->handler = nullptr;
    state->cv.NotifyAll();
  }
  if (state->worker.get_id() == std::this_thread::get_id()) {
    // Re-entrant Unbind from inside the endpoint's own handler: the
    // worker cannot join itself; it exits right after the handler
    // returns (the shared_ptr it holds keeps the state alive).
    state->worker.detach();
  } else {
    state->worker.join();
  }
}

bool InProcessTransport::IsBound(EndpointId endpoint) const {
  MutexLock lock(mu_);
  return endpoints_.count(endpoint) != 0;
}

Status InProcessTransport::Send(EndpointId to, std::string frame) {
  TransportMetrics& metrics = TransportMetrics::Get();
  const FaultDecision decision = injector_.Decide();
  std::shared_ptr<Endpoint> state;
  int64_t jitter = 0;
  {
    MutexLock lock(mu_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      ++stats_.dropped_unbound;
      metrics.dropped.Increment();
      return Status::NotFound("transport endpoint " + std::to_string(to) +
                              " not bound");
    }
    state = it->second;
    if (options_.jitter_us > 0) {
      jitter = std::uniform_int_distribution<int64_t>(
          0, options_.jitter_us)(jitter_rng_);
    }
  }
  if (decision.drop) {
    MutexLock lock(mu_);
    ++stats_.dropped_faults;
    metrics.dropped.Increment();
    return Status::OK();  // The sender cannot observe network loss.
  }

  const int64_t frame_bytes = static_cast<int64_t>(frame.size());
  int enqueued = 0;
  bool overflowed = false;
  {
    MutexLock lock(state->mu);
    if (!state->stop) {
      for (int copy = 0; copy < decision.copies; ++copy) {
        if (state->queue.size() >= options_.queue_capacity) {
          overflowed = true;
          break;
        }
        const int64_t deliver_at =
            NowUs() + options_.latency_us + jitter + decision.extra_delay_us;
        state->queue.emplace(deliver_at, frame);
        ++enqueued;
      }
      if (enqueued > 0) {
        // Count the frames *before* the worker can see them: once the
        // notify lands the worker may dequeue, deliver and decrement
        // immediately, and an increment issued after this critical
        // section would let active_ dip to zero with work still queued
        // or running — WaitIdle would report idle mid-delivery.
        active_.fetch_add(enqueued, std::memory_order_relaxed);
        state->cv.NotifyAll();
      }
    } else {
      overflowed = false;  // Raced an Unbind: count as unbound below.
    }
  }
  if (enqueued > 0) {
    metrics.sent.Add(enqueued);
    metrics.queue_depth.Add(enqueued);
  }
  MutexLock lock(mu_);
  stats_.sent += enqueued;
  stats_.bytes_sent += frame_bytes * enqueued;
  if (overflowed) {
    ++stats_.dropped_overflow;
    metrics.dropped.Increment();
    if (enqueued == 0) {
      return Status::ResourceExhausted("transport queue for endpoint " +
                                       std::to_string(to) + " is full");
    }
  }
  if (enqueued == 0 && !overflowed) {
    ++stats_.dropped_unbound;
    metrics.dropped.Increment();
    return Status::NotFound("transport endpoint " + std::to_string(to) +
                            " unbound during send");
  }
  return Status::OK();
}

void InProcessTransport::WorkerLoop(const std::shared_ptr<Endpoint>& state) {
  TransportMetrics& metrics = TransportMetrics::Get();
  state->mu.Lock();
  for (;;) {
    while (!state->stop && state->queue.empty()) state->cv.Wait(state->mu);
    if (state->stop) break;
    auto it = state->queue.begin();
    const int64_t now = NowUs();
    if (it->first > now) {
      // Sleep until the earliest frame matures; a new earlier frame or
      // stop request re-wakes us via the cv (a wake just reloops, so a
      // spurious one costs a recheck, nothing more).
      state->cv.WaitFor(state->mu, it->first - now);
      continue;
    }
    std::string frame = std::move(it->second);
    state->queue.erase(it);
    metrics.queue_depth.Add(-1);
    FrameHandler handler = state->handler;
    const int64_t frame_bytes = static_cast<int64_t>(frame.size());
    state->mu.Unlock();
    if (handler) handler(std::move(frame));
    {
      MutexLock stats_lock(mu_);
      ++stats_.delivered;
      stats_.bytes_delivered += frame_bytes;
    }
    metrics.delivered.Increment();
    FinishActive(1);
    state->mu.Lock();
  }
  // Discard whatever is still queued so WaitIdle does not wait for
  // frames that can never be handled.
  const int64_t discarded = static_cast<int64_t>(state->queue.size());
  state->queue.clear();
  state->mu.Unlock();
  if (discarded > 0) {
    metrics.queue_depth.Add(-discarded);
    FinishActive(discarded);
  }
}

void InProcessTransport::FinishActive(int64_t n) {
  if (active_.fetch_sub(n, std::memory_order_release) == n) {
    // Hitting zero: wake idle waiters (lock ensures no missed wakeup).
    MutexLock lock(idle_mu_);
    idle_cv_.NotifyAll();
  }
}

bool InProcessTransport::WaitIdle(int64_t timeout_us) {
  const int64_t deadline = NowUs() + timeout_us;
  MutexLock lock(idle_mu_);
  while (active_.load(std::memory_order_acquire) != 0) {
    const int64_t remaining = deadline - NowUs();
    if (remaining <= 0) return false;
    idle_cv_.WaitFor(idle_mu_, remaining);
  }
  return true;
}

TransportStats InProcessTransport::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

int64_t InProcessTransport::QueueDepth() const {
  return active_.load(std::memory_order_relaxed);
}

Status InlineTransport::Bind(EndpointId endpoint, FrameHandler handler) {
  MutexLock lock(mu_);
  if (endpoints_.count(endpoint) != 0) {
    return Status::AlreadyExists("transport endpoint " +
                                 std::to_string(endpoint) + " already bound");
  }
  endpoints_.emplace(endpoint, std::make_shared<Endpoint>(std::move(handler)));
  return Status::OK();
}

void InlineTransport::Unbind(EndpointId endpoint) {
  MutexLock lock(mu_);
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) return;
  std::shared_ptr<Endpoint> state = std::move(it->second);
  endpoints_.erase(it);
  state->unbound = true;
  active_ -= static_cast<int64_t>(state->queue.size());
  state->queue.clear();
  // Wait out a handler running on another thread. A thread unbinding
  // an endpoint it is itself delivering to (a handler unbinding its own
  // endpoint, possibly a few inline sends deep) cannot wait for itself;
  // its drain stops as soon as that handler returns.
  const std::thread::id self = std::this_thread::get_id();
  while (state->busy && state->deliverer != self) drained_cv_.Wait(mu_);
}

bool InlineTransport::IsBound(EndpointId endpoint) const {
  MutexLock lock(mu_);
  return endpoints_.count(endpoint) != 0;
}

Status InlineTransport::Send(EndpointId to, std::string frame) {
  TransportMetrics& metrics = TransportMetrics::Get();
  std::shared_ptr<Endpoint> state;
  {
    MutexLock lock(mu_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      ++stats_.dropped_unbound;
      metrics.dropped.Increment();
      return Status::NotFound("transport endpoint " + std::to_string(to) +
                              " not bound");
    }
    ++stats_.sent;
    stats_.bytes_sent += static_cast<int64_t>(frame.size());
    ++active_;
    it->second->queue.push_back(std::move(frame));
    if (!it->second->busy) {
      state = it->second;
      state->busy = true;
      state->deliverer = std::this_thread::get_id();
    }
  }
  metrics.sent.Increment();
  // Busy endpoint: the thread delivering to it runs this frame next.
  if (state != nullptr) Drain(state);
  return Status::OK();
}

void InlineTransport::Drain(const std::shared_ptr<Endpoint>& state) {
  TransportMetrics& metrics = TransportMetrics::Get();
  mu_.Lock();
  while (!state->unbound && !state->queue.empty()) {
    std::string frame = std::move(state->queue.front());
    state->queue.pop_front();
    const int64_t frame_bytes = static_cast<int64_t>(frame.size());
    mu_.Unlock();
    state->handler(std::move(frame));
    metrics.delivered.Increment();
    mu_.Lock();
    ++stats_.delivered;
    stats_.bytes_delivered += frame_bytes;
    --active_;
  }
  state->busy = false;
  drained_cv_.NotifyAll();
  mu_.Unlock();
}

bool InlineTransport::WaitIdle(int64_t timeout_us) {
  const int64_t deadline = NowUs() + timeout_us;
  MutexLock lock(mu_);
  while (active_ != 0) {
    const int64_t remaining = deadline - NowUs();
    if (remaining <= 0) return false;
    drained_cv_.WaitFor(mu_, remaining);
  }
  return true;
}

TransportStats InlineTransport::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace mdv::net
