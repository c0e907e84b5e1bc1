// Throughput and delivery-latency sweep of the asynchronous
// notification transport (wire codec + bounded queues + at-least-once
// redelivery) under 0%, 1% and 10% injected frame loss. Loss applies to
// acks too, so the lossy points show the retransmission tail: the p99
// delivery latency degrades to the retransmit timeout while throughput
// stays near the lossless rate (redeliveries pipeline with fresh
// sends). Writes BENCH_net.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/reliable.h"
#include "net/transport.h"
#include "pubsub/notification.h"
#include "rdf/document.h"
#include "rdf/term.h"

namespace mdv::bench {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A representative notification: one matched resource with a handful
/// of properties, the send timestamp riding along as a literal.
pubsub::Notification MakeNote(int tag) {
  pubsub::Notification note;
  note.kind = pubsub::NotificationKind::kInsert;
  note.lmr = 1;
  note.subscription = 1;
  rdf::Resource res("r" + std::to_string(tag), "CycleProvider");
  res.AddProperty("serverHost",
                  rdf::PropertyValue::Literal("host" + std::to_string(tag) +
                                              ".example.edu"));
  res.AddProperty("serverPort", rdf::PropertyValue::Literal("5874"));
  res.AddProperty("sent_us",
                  rdf::PropertyValue::Literal(std::to_string(NowUs())));
  note.resources.push_back(
      {"bench.rdf#r" + std::to_string(tag), std::move(res), false, {}});
  return note;
}

double Percentile(std::vector<double>* values, double pct) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t index = static_cast<size_t>(pct * (values->size() - 1));
  return (*values)[index];
}

void RunConfig(const std::string& series, double loss, size_t count) {
  net::TransportOptions transport_options;
  transport_options.queue_capacity = count * 2;
  transport_options.faults.drop_probability = loss;
  transport_options.faults.seed = 0xBE7C4;
  net::InProcessTransport transport(transport_options);
  net::ReliableOptions reliability;
  reliability.retransmit_timeout_us = 5000;
  net::ReliableLink link(&transport, reliability);

  std::mutex mu;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(count);
  BenchCheck(link.BindReceiver(1,
                               [&](const pubsub::Notification& note) {
                                 const int64_t sent = std::stoll(
                                     note.resources.at(0)
                                         .resource.FindProperty("sent_us")
                                         ->text());
                                 const double ms = (NowUs() - sent) / 1000.0;
                                 std::lock_guard<std::mutex> lock(mu);
                                 latencies_ms.push_back(ms);
                               }),
             "bind receiver");
  const uint64_t sender = link.RegisterSender();

  const int64_t start_us = NowUs();
  for (size_t i = 0; i < count; ++i) {
    BenchCheck(link.Publish(sender, MakeNote(static_cast<int>(i))),
               "publish");
  }
  if (!link.WaitSettled(120'000'000)) {
    std::fprintf(stderr, "transport failed to settle\n");
    std::exit(1);
  }
  const double elapsed_s = (NowUs() - start_us) / 1e6;

  std::lock_guard<std::mutex> lock(mu);
  if (latencies_ms.size() != count) {
    std::fprintf(stderr, "delivered %zu of %zu notifications\n",
                 latencies_ms.size(), count);
    std::exit(1);
  }
  const double throughput = static_cast<double>(count) / elapsed_s;
  const double p50 = Percentile(&latencies_ms, 0.50);
  const double p99 = Percentile(&latencies_ms, 0.99);
  net::LinkStats stats = link.stats();
  std::printf("net_transport,%s,%zu,throughput_notes_per_sec,%.1f\n",
              series.c_str(), count, throughput);
  std::printf("net_transport,%s,%zu,p50_delivery_ms,%.4f\n", series.c_str(),
              count, p50);
  std::printf("net_transport,%s,%zu,p99_delivery_ms,%.4f\n", series.c_str(),
              count, p99);
  std::fflush(stdout);
  const std::string extra = "\"redelivered\": " +
                            std::to_string(stats.redelivered) +
                            ", \"dedup_suppressed\": " +
                            std::to_string(stats.dedup_suppressed);
  BenchRecords().push_back(BenchRecord{"net_transport", series, count,
                                       throughput, "throughput_notes_per_sec",
                                       extra});
  BenchRecords().push_back(BenchRecord{"net_transport", series, count, p50,
                                       "p50_delivery_ms", ""});
  BenchRecords().push_back(BenchRecord{"net_transport", series, count, p99,
                                       "p99_delivery_ms", ""});
}

}  // namespace
}  // namespace mdv::bench

int main() {
  using namespace mdv::bench;
  const size_t count = FullScale() ? 20000 : 2000;
  std::printf("# net_transport: async notification transport under loss\n");
  std::printf("# columns: figure,series,notifications,metric,value\n");
  RunConfig("loss_0pct", 0.0, count);
  RunConfig("loss_1pct", 0.01, count);
  RunConfig("loss_10pct", 0.10, count);
  WriteBenchJson("BENCH_net.json");
  return 0;
}
