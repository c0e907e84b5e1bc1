// Concurrency regression tests for the components documented as
// thread-safe: the simulated Network, the obs metrics registry, the
// tracer, and logging. Run under the tsan preset these catch the data
// races the single-threaded suites cannot (handlers_/stats_ of Network
// used to be unguarded); under the normal presets they still verify
// that concurrent counting loses no updates.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "mdv/network.h"
#include "mdv/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/document.h"
#include "rdf/schema.h"

namespace mdv {
namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 200;

pubsub::Notification MakeNote(pubsub::LmrId lmr, size_t resources) {
  pubsub::Notification note;
  note.kind = pubsub::NotificationKind::kInsert;
  note.lmr = lmr;
  note.subscription = 1;
  for (size_t i = 0; i < resources; ++i) {
    note.resources.push_back(pubsub::TransmittedResource{
        "d.rdf#r" + std::to_string(i), rdf::Resource(), false, {}});
  }
  return note;
}

TEST(MdvConcurrencyTest, ConcurrentDeliverCountsEveryMessage) {
  Network network;
  std::atomic<int64_t> handled{0};
  for (int lmr = 0; lmr < kThreads; ++lmr) {
    network.Attach(lmr, [&handled](const pubsub::Notification&) {
      handled.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&network, t] {
      for (int i = 0; i < kIterations; ++i) {
        network.Deliver(MakeNote(t, 2));
        // Reads race the writers by design — stats() must stay a
        // consistent snapshot throughout.
        NetworkStats snapshot = network.stats();
        EXPECT_GE(snapshot.messages, 0);
        EXPECT_GE(snapshot.resources_shipped, 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  NetworkStats stats = network.stats();
  EXPECT_EQ(stats.messages, kThreads * kIterations);
  EXPECT_EQ(stats.resources_shipped, kThreads * kIterations * 2);
  EXPECT_EQ(stats.undeliverable, 0);
  EXPECT_EQ(handled.load(), kThreads * kIterations);
}

TEST(MdvConcurrencyTest, ConcurrentAttachDetachDeliver) {
  Network network;
  // One stable endpoint plus threads that churn their own endpoints
  // while everyone delivers: exercises the handlers_ map under
  // concurrent mutation. Counts are not asserted exactly (a delivery
  // legitimately races a detach) — the invariant is no crash/race and
  // messages = deliveries.
  std::atomic<int64_t> stable_handled{0};
  network.Attach(1000, [&stable_handled](const pubsub::Notification&) {
    stable_handled.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&network, t] {
      for (int i = 0; i < kIterations; ++i) {
        network.Attach(t, [](const pubsub::Notification&) {});
        network.Deliver(MakeNote(t, 1));
        network.Deliver(MakeNote(1000, 1));
        network.Detach(t);
        network.Deliver(MakeNote(t, 1));  // May be undeliverable: fine.
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  NetworkStats stats = network.stats();
  EXPECT_EQ(stats.messages, kThreads * kIterations * 3);
  EXPECT_EQ(stable_handled.load(), kThreads * kIterations);
}

TEST(MdvConcurrencyTest, DetachLinearizesAgainstInFlightDelivery) {
  // Regression test for the documented race: a handler could still be
  // running (or about to run, holding a copied handler) after Detach
  // returned, so state the handler touches could not be safely torn
  // down. Detach must now wait out in-flight deliveries by other
  // threads.
  for (int round = 0; round < 50; ++round) {
    Network network;
    std::atomic<bool> in_handler{false};
    std::atomic<bool> release{false};
    std::atomic<bool> handler_alive{true};
    network.Attach(1, [&](const pubsub::Notification&) {
      in_handler.store(true);
      while (!release.load()) std::this_thread::yield();
      // If Detach returned while we are still here, the test below
      // observes handler_alive == true after Detach.
      EXPECT_TRUE(handler_alive.load());
      in_handler.store(false);
    });

    std::thread deliverer([&] { network.Deliver(MakeNote(1, 1)); });
    while (!in_handler.load()) std::this_thread::yield();

    std::thread detacher([&] {
      network.Detach(1);
      // Everything the handler relies on may be destroyed now.
      handler_alive.store(false);
    });
    // Detach must block while the handler is inside the callback.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(in_handler.load());
    release.store(true);
    detacher.join();
    EXPECT_FALSE(in_handler.load());  // Linearized: handler finished first.
    deliverer.join();
  }
}

TEST(MdvConcurrencyTest, HandlerMayDetachItselfWithoutDeadlock) {
  Network network;
  int calls = 0;
  Network* net = &network;
  network.Attach(1, [&calls, net](const pubsub::Notification&) {
    ++calls;
    net->Detach(1);  // Re-entrant self-detach must not deadlock.
  });
  network.Deliver(MakeNote(1, 1));
  network.Deliver(MakeNote(1, 1));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(network.stats().undeliverable, 1);
}

TEST(MdvConcurrencyTest, DetachedHandlerNeverRunsAgainUnderChurn) {
  // Hammer the original interleaving: one thread delivers in a loop,
  // another attaches/detaches the same endpoint. After every Detach
  // return, a delivery must never reach the detached generation's
  // handler.
  Network network;
  std::atomic<bool> stop{false};
  std::thread deliverer([&] {
    while (!stop.load()) network.Deliver(MakeNote(7, 1));
  });
  for (int gen = 0; gen < 300; ++gen) {
    auto alive = std::make_shared<std::atomic<bool>>(true);
    network.Attach(7, [alive](const pubsub::Notification&) {
      EXPECT_TRUE(alive->load()) << "handler ran after Detach returned";
    });
    std::this_thread::yield();
    network.Detach(7);
    alive->store(false);  // From here on the handler must be dead.
  }
  stop.store(true);
  deliverer.join();
}

TEST(MdvConcurrencyTest, SharedMetricsAndTracerAcrossThreads) {
  obs::Counter& counter =
      obs::DefaultMetrics().GetCounter("mdv.test.concurrency_total");
  const int64_t before = counter.value();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIterations; ++i) {
        // Registration (name lookup) and recording from many threads.
        obs::DefaultMetrics().GetCounter("mdv.test.concurrency_total")
            .Increment();
        obs::DefaultMetrics()
            .GetHistogram("mdv.test.concurrency_us")
            .Record(i);
        obs::ScopedSpan span("test.concurrent_span");
        span.AddAttribute("thread", static_cast<int64_t>(t));
        MDV_LOG(Debug) << "concurrency test thread " << t << " iter " << i;
        if (i % 32 == 0) {
          (void)obs::DefaultMetrics().Snapshot();  // Reader racing writers.
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter.value() - before, kThreads * kIterations);
}

TEST(MdvConcurrencyTest, SystemsPublishingOverSharedObservability) {
  // MDPs themselves are documented single-threaded, so each thread owns
  // a full MdvSystem; what is shared — and what this test races — is
  // the process-wide metrics registry, tracer, and logging every system
  // records into.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      MdvSystem system(rdf::MakeObjectGlobeSchema());
      MetadataProvider* mdp = system.AddProvider();
      LocalMetadataRepository* lmr = system.AddRepository();
      auto subscribed = lmr->Subscribe(
          "search CycleProvider c register c where c.serverPort = 5874");
      if (!subscribed.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 20; ++i) {
        rdf::RdfDocument doc("thread" + std::to_string(t) + "_" +
                             std::to_string(i) + ".rdf");
        rdf::Resource host("host", "CycleProvider");
        host.AddProperty("serverHost",
                         rdf::PropertyValue::Literal("h" + std::to_string(i)));
        host.AddProperty("serverPort", rdf::PropertyValue::Literal("5874"));
        if (!doc.AddResource(std::move(host)).ok() ||
            !mdp->RegisterDocument(std::move(doc)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mdv
