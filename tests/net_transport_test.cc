#include "net/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/reliable.h"
#include "net/wire.h"
#include "pubsub/notification.h"
#include "rdf/document.h"

namespace mdv::net {
namespace {

using pubsub::Notification;
using pubsub::NotificationKind;

// ---- InProcessTransport. ------------------------------------------------

TEST(TransportTest, DeliversFramesAsynchronouslyInOrder) {
  InProcessTransport transport;
  std::mutex mu;
  std::vector<std::string> received;
  ASSERT_TRUE(transport.Bind(1, [&](std::string frame) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(frame));
  }).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(transport.Send(1, "frame-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(transport.WaitIdle(5'000'000));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(received[i], "frame-" + std::to_string(i));
  }
}

TEST(TransportTest, SendToUnboundEndpointIsNotFound) {
  InProcessTransport transport;
  Status st = transport.Send(99, "frame");
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(transport.stats().dropped_unbound, 1);
}

TEST(TransportTest, BindTwiceIsAlreadyExists) {
  InProcessTransport transport;
  ASSERT_TRUE(transport.Bind(1, [](std::string) {}).ok());
  EXPECT_EQ(transport.Bind(1, [](std::string) {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(TransportTest, BoundedQueueRejectsOverflow) {
  TransportOptions options;
  options.queue_capacity = 4;
  // Big latency so nothing drains while we overfill.
  options.latency_us = 2'000'000;
  InProcessTransport transport(options);
  ASSERT_TRUE(transport.Bind(1, [](std::string) {}).ok());
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    Status st = transport.Send(1, "x");
    if (st.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 6);
  EXPECT_EQ(transport.stats().dropped_overflow, 6);
  EXPECT_EQ(transport.QueueDepth(), 4);
  transport.Unbind(1);  // Discard the delayed frames instead of waiting.
}

TEST(TransportTest, SyntheticLatencyDelaysDelivery) {
  TransportOptions options;
  options.latency_us = 50'000;
  InProcessTransport transport(options);
  std::atomic<int64_t> delivered_at{0};
  ASSERT_TRUE(transport.Bind(1, [&](std::string) {
    delivered_at.store(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
  }).ok());
  const int64_t sent_at =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  ASSERT_TRUE(transport.Send(1, "frame").ok());
  ASSERT_TRUE(transport.WaitIdle(5'000'000));
  EXPECT_GE(delivered_at.load() - sent_at, 45'000);
}

TEST(TransportTest, FaultInjectionDropsAreInvisibleToSender) {
  TransportOptions options;
  options.faults.drop_probability = 1.0;
  InProcessTransport transport(options);
  std::atomic<int> received{0};
  ASSERT_TRUE(transport.Bind(1, [&](std::string) { ++received; }).ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(transport.Send(1, "x").ok());  // Loss looks like success.
  }
  ASSERT_TRUE(transport.WaitIdle(5'000'000));
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(transport.stats().dropped_faults, 20);
  EXPECT_EQ(transport.fault_stats().dropped, 20);
}

TEST(TransportTest, FaultSequenceIsDeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    TransportOptions options;
    options.faults.drop_probability = 0.3;
    options.faults.duplicate_probability = 0.2;
    options.faults.seed = seed;
    InProcessTransport transport(options);
    std::mutex mu;
    std::vector<std::string> received;
    EXPECT_TRUE(transport.Bind(1, [&](std::string frame) {
      std::lock_guard<std::mutex> lock(mu);
      received.push_back(std::move(frame));
    }).ok());
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(transport.Send(1, std::to_string(i)).ok());
    }
    EXPECT_TRUE(transport.WaitIdle(5'000'000));
    std::lock_guard<std::mutex> lock(mu);
    return received;
  };
  std::vector<std::string> first = run(1234);
  std::vector<std::string> second = run(1234);
  std::vector<std::string> other = run(99);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);  // Overwhelmingly likely for 200 frames.
}

TEST(TransportTest, DeterministicScheduleOverridesProbabilities) {
  TransportOptions options;
  options.faults.drop_probability = 1.0;  // Would drop everything...
  InProcessTransport transport(options);
  // ...but the schedule forces frame 0 through and duplicates frame 1.
  transport.set_fault_schedule([](uint64_t index) -> std::optional<FaultDecision> {
    FaultDecision decision;
    if (index == 0) return decision;
    if (index == 1) {
      decision.copies = 2;
      return decision;
    }
    return std::nullopt;  // Fall back to probabilities (drop).
  });
  std::mutex mu;
  std::vector<std::string> received;
  ASSERT_TRUE(transport.Bind(1, [&](std::string frame) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(frame));
  }).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(transport.Send(1, std::to_string(i)).ok());
  }
  ASSERT_TRUE(transport.WaitIdle(5'000'000));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0], "0");
  EXPECT_EQ(received[1], "1");
  EXPECT_EQ(received[2], "1");
}

TEST(TransportTest, UnbindLinearizesAgainstInFlightDelivery) {
  InProcessTransport transport;
  std::atomic<bool> in_handler{false};
  std::atomic<bool> release{false};
  std::atomic<int> delivered{0};
  ASSERT_TRUE(transport.Bind(1, [&](std::string) {
    in_handler.store(true);
    while (!release.load()) std::this_thread::yield();
    ++delivered;
    in_handler.store(false);
  }).ok());
  ASSERT_TRUE(transport.Send(1, "x").ok());
  while (!in_handler.load()) std::this_thread::yield();
  std::thread unbinder([&] { transport.Unbind(1); });
  // Unbind must not return while the handler runs; give it a moment to
  // (wrongly) do so.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(in_handler.load());
  release.store(true);
  unbinder.join();
  // Once Unbind returned the handler finished and can never run again.
  EXPECT_FALSE(in_handler.load());
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(transport.Send(1, "y").code(), StatusCode::kNotFound);
}

TEST(TransportTest, HandlerMayUnbindItself) {
  InProcessTransport transport;
  std::atomic<int> calls{0};
  InProcessTransport* t = &transport;
  ASSERT_TRUE(transport.Bind(1, [&, t](std::string) {
    ++calls;
    t->Unbind(1);  // Re-entrant self-unbind must not deadlock.
  }).ok());
  ASSERT_TRUE(transport.Send(1, "x").ok());
  ASSERT_TRUE(transport.WaitIdle(5'000'000));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_FALSE(transport.IsBound(1));
}

// ---- InlineTransport. ---------------------------------------------------

TEST(InlineTransportTest, DeliversBeforeSendReturns) {
  InlineTransport transport;
  std::vector<std::string> received;
  ASSERT_TRUE(transport.Bind(1, [&](std::string frame) {
    received.push_back(std::move(frame));
  }).ok());
  ASSERT_TRUE(transport.Send(1, "a").ok());
  EXPECT_EQ(received, std::vector<std::string>{"a"});
  EXPECT_EQ(transport.Send(2, "b").code(), StatusCode::kNotFound);
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.sent, 1);
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_EQ(stats.dropped_unbound, 1);
  EXPECT_TRUE(transport.WaitIdle(0));
}

TEST(InlineTransportTest, SendToABusyEndpointQueuesInOrder) {
  // A handler sending to its own endpoint finds it busy: the frames
  // queue and run after the current one returns, in send order, while a
  // send to an idle endpoint runs at once, nested.
  InlineTransport transport;
  std::vector<std::string> log;
  ASSERT_TRUE(transport.Bind(2, [&](std::string frame) {
    log.push_back("2:" + frame);
  }).ok());
  ASSERT_TRUE(transport.Bind(1, [&](std::string frame) {
    log.push_back("1:" + frame + ":begin");
    if (frame == "a") {
      ASSERT_TRUE(transport.Send(1, "b").ok());
      ASSERT_TRUE(transport.Send(1, "c").ok());
      ASSERT_TRUE(transport.Send(2, "x").ok());
    }
    log.push_back("1:" + frame + ":end");
  }).ok());
  ASSERT_TRUE(transport.Send(1, "a").ok());
  const std::vector<std::string> expected = {
      "1:a:begin", "2:x", "1:a:end", "1:b:begin",
      "1:b:end",   "1:c:begin", "1:c:end"};
  EXPECT_EQ(log, expected);
}

TEST(InlineTransportTest, UnbindWaitsOutADeliveryOnAnotherThread) {
  InlineTransport transport;
  std::atomic<bool> in_handler{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(transport.Bind(1, [&](std::string) {
    in_handler.store(true);
    while (!release.load()) std::this_thread::yield();
    in_handler.store(false);
  }).ok());
  std::thread sender([&] { ASSERT_TRUE(transport.Send(1, "x").ok()); });
  while (!in_handler.load()) std::this_thread::yield();
  std::thread unbinder([&] { transport.Unbind(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(in_handler.load());
  release.store(true);
  unbinder.join();
  EXPECT_FALSE(in_handler.load());
  sender.join();
  EXPECT_EQ(transport.Send(1, "y").code(), StatusCode::kNotFound);
}

TEST(InlineTransportTest, HandlerMayUnbindItself) {
  InlineTransport transport;
  int calls = 0;
  ASSERT_TRUE(transport.Bind(1, [&](std::string) {
    ++calls;
    transport.Unbind(1);
  }).ok());
  ASSERT_TRUE(transport.Send(1, "x").ok());
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(transport.IsBound(1));
}

// ---- ReliableLink. ------------------------------------------------------

Notification MakeNote(pubsub::LmrId lmr, int tag) {
  Notification note;
  note.kind = NotificationKind::kInsert;
  note.lmr = lmr;
  note.subscription = 1;
  rdf::Resource res("r" + std::to_string(tag), "Movie");
  res.AddProperty("tag", rdf::PropertyValue::Literal(std::to_string(tag)));
  note.resources.push_back({"http://d#" + std::to_string(tag), res, false, {}});
  return note;
}

int TagOf(const Notification& note) {
  return std::stoi(note.resources.at(0).resource.FindProperty("tag")->text());
}

TEST(ReliableLinkTest, DeliversExactlyOnceInOrderUnderHeavyFaults) {
  TransportOptions options;
  options.faults.drop_probability = 0.10;
  options.faults.duplicate_probability = 0.05;
  options.faults.reorder_probability = 0.10;
  options.faults.reorder_delay_us = 3000;
  options.faults.seed = 42;
  InProcessTransport transport(options);
  ReliableOptions reliability;
  reliability.retransmit_timeout_us = 2000;
  ReliableLink link(&transport, reliability);

  std::mutex mu;
  std::vector<int> received;
  ASSERT_TRUE(link.BindReceiver(1, [&](const Notification& note) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(TagOf(note));
  }).ok());

  const uint64_t sender = link.RegisterSender();
  const int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(link.Publish(sender, MakeNote(1, i)).ok());
  }
  ASSERT_TRUE(link.WaitSettled(30'000'000));

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(received.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(received[i], i);  // Exactly once, in publish order.
  }
  LinkStats stats = link.stats();
  EXPECT_EQ(stats.published, kCount);
  EXPECT_EQ(stats.delivered, kCount);
  EXPECT_EQ(stats.dead_lettered, 0);
  EXPECT_GT(stats.redelivered, 0);        // 10% loss forces retries.
  EXPECT_GT(stats.dedup_suppressed, 0);   // Dups + redeliveries collide.
}

TEST(ReliableLinkTest, IndependentFlowsDoNotBlockEachOther) {
  InProcessTransport transport;
  ReliableLink link(&transport);
  std::mutex mu;
  std::map<pubsub::LmrId, std::vector<int>> received;
  for (pubsub::LmrId lmr : {1, 2, 3}) {
    ASSERT_TRUE(link.BindReceiver(lmr, [&, lmr](const Notification& note) {
      std::lock_guard<std::mutex> lock(mu);
      received[lmr].push_back(TagOf(note));
    }).ok());
  }
  const uint64_t a = link.RegisterSender();
  const uint64_t b = link.RegisterSender();
  for (int i = 0; i < 20; ++i) {
    for (pubsub::LmrId lmr : {1, 2, 3}) {
      ASSERT_TRUE(link.Publish(i % 2 == 0 ? a : b, MakeNote(lmr, i)).ok());
    }
  }
  ASSERT_TRUE(link.WaitSettled(30'000'000));
  std::lock_guard<std::mutex> lock(mu);
  for (pubsub::LmrId lmr : {1, 2, 3}) {
    ASSERT_EQ(received[lmr].size(), 20u);
    for (int i = 0; i < 20; ++i) EXPECT_EQ(received[lmr][i], i);
  }
}

TEST(ReliableLinkTest, PublishToUnboundLmrIsNotFound) {
  InProcessTransport transport;
  ReliableLink link(&transport);
  const uint64_t sender = link.RegisterSender();
  EXPECT_EQ(link.Publish(sender, MakeNote(9, 0)).code(),
            StatusCode::kNotFound);
}

TEST(ReliableLinkTest, NegativeLmrIdsAreRejected) {
  InProcessTransport transport;
  ReliableLink link(&transport);
  EXPECT_FALSE(link.BindReceiver(-5, [](const Notification&) {}).ok());
}

TEST(ReliableLinkTest, RebindingABoundLmrLeavesTheLiveReceiverIntact) {
  InProcessTransport transport;
  ReliableOptions reliability;
  reliability.retransmit_timeout_us = 500;
  reliability.max_backoff_us = 1000;
  reliability.max_attempts = 3;
  reliability.scan_interval_us = 200;
  ReliableLink link(&transport, reliability);
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  ASSERT_TRUE(
      link.BindReceiver(1, [&](const Notification&) { ++first; }).ok());
  EXPECT_EQ(link.BindReceiver(1, [&](const Notification&) { ++second; })
                .code(),
            StatusCode::kAlreadyExists);

  const uint64_t sender = link.RegisterSender();
  ASSERT_TRUE(link.Publish(sender, MakeNote(1, 0)).ok());
  ASSERT_TRUE(link.WaitSettled(30'000'000));
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 0);
  EXPECT_EQ(link.stats().dead_lettered, 0);
}

TEST(ReliableLinkTest, RebindAfterUnbindReceivesAgain) {
  // A volatile receiver bound again at a detached id starts where its
  // senders are: the next publish is delivered, not parked in hold-back
  // behind sequence numbers the earlier receiver consumed.
  InProcessTransport transport;
  ReliableLink link(&transport);
  const uint64_t sender = link.RegisterSender();
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  ASSERT_TRUE(
      link.BindReceiver(5, [&](const Notification&) { ++first; }).ok());
  ASSERT_TRUE(link.Publish(sender, MakeNote(5, 0)).ok());
  ASSERT_TRUE(link.Publish(sender, MakeNote(5, 1)).ok());
  ASSERT_TRUE(link.WaitSettled(30'000'000));
  link.UnbindReceiver(5);
  ASSERT_TRUE(
      link.BindReceiver(5, [&](const Notification&) { ++second; }).ok());
  ASSERT_TRUE(link.Publish(sender, MakeNote(5, 2)).ok());
  ASSERT_TRUE(link.WaitSettled(30'000'000));
  EXPECT_EQ(first.load(), 2);
  EXPECT_EQ(second.load(), 1);
  EXPECT_EQ(link.HoldbackDepth(), 0u);
}

TEST(ReliableLinkTest, UnbindDropsUnackedFramesOfAVolatileReceiver) {
  // Acks never come back, so the frame would be retransmitted until the
  // retry cap; unbinding the volatile receiver drops it instead.
  InProcessTransport transport;
  ReliableLink link(&transport);
  ASSERT_TRUE(link.BindReceiver(1, [](const Notification&) {}).ok());
  const uint64_t sender = link.RegisterSender();
  transport.Unbind(ReliableLink::AckEndpoint(sender));
  ASSERT_TRUE(link.Publish(sender, MakeNote(1, 0)).ok());
  EXPECT_EQ(link.PendingCount(), 1u);
  link.UnbindReceiver(1);
  EXPECT_EQ(link.PendingCount(), 0u);
  EXPECT_TRUE(link.WaitSettled(30'000'000));
  EXPECT_EQ(link.stats().dead_lettered, 0);
}

// The link unbinds a released sender's ack endpoint on its retransmit
// thread, so the release lands shortly after the last ack.
bool EventuallyUnbound(const Transport& transport, EndpointId endpoint) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (transport.IsBound(endpoint) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return !transport.IsBound(endpoint);
}

TEST(ReliableLinkTest, RetiredSenderReleasesItsAckEndpointOnceAcked) {
  InProcessTransport transport;
  ReliableLink link(&transport);
  std::atomic<int> received{0};
  ASSERT_TRUE(
      link.BindReceiver(1, [&](const Notification&) { ++received; }).ok());
  const uint64_t sender = link.RegisterSender();
  ASSERT_TRUE(transport.IsBound(ReliableLink::AckEndpoint(sender)));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(link.Publish(sender, MakeNote(1, i)).ok());
  }
  link.RetireSender(sender);
  ASSERT_TRUE(link.WaitSettled(30'000'000));
  EXPECT_EQ(received.load(), 3);
  EXPECT_TRUE(EventuallyUnbound(transport, ReliableLink::AckEndpoint(sender)));
  // An idle sender is released right away.
  const uint64_t idle = link.RegisterSender();
  link.RetireSender(idle);
  EXPECT_TRUE(EventuallyUnbound(transport, ReliableLink::AckEndpoint(idle)));
}

TEST(ReliableLinkTest, DeadLettersAfterRetryCapWhenReceiverNeverAcks) {
  TransportOptions options;
  // Drop every notify frame; acks never even get generated.
  InProcessTransport transport(options);
  transport.set_fault_schedule(
      [](uint64_t) -> std::optional<FaultDecision> {
        FaultDecision decision;
        decision.drop = true;
        return decision;
      });
  ReliableOptions reliability;
  reliability.retransmit_timeout_us = 500;
  reliability.max_backoff_us = 1000;
  reliability.max_attempts = 3;
  reliability.scan_interval_us = 200;
  ReliableLink link(&transport, reliability);
  std::atomic<int> received{0};
  ASSERT_TRUE(
      link.BindReceiver(1, [&](const Notification&) { ++received; }).ok());
  const uint64_t sender = link.RegisterSender();
  ASSERT_TRUE(link.Publish(sender, MakeNote(1, 0)).ok());
  ASSERT_TRUE(link.WaitSettled(30'000'000));  // Settles via dead-letter.
  EXPECT_EQ(received.load(), 0);
  LinkStats stats = link.stats();
  EXPECT_EQ(stats.dead_lettered, 1);
  EXPECT_EQ(stats.redelivered, 2);  // Attempts 2 and 3 of max_attempts=3.
  EXPECT_EQ(link.PendingCount(), 0u);
}

TEST(ReliableLinkTest, RetransmissionSurvivesTotalLossWindow) {
  // Drop the first 3 sends (original + 2 retries), then let everything
  // through: the frame must still arrive exactly once.
  InProcessTransport transport;
  transport.set_fault_schedule(
      [](uint64_t index) -> std::optional<FaultDecision> {
        FaultDecision decision;
        decision.drop = index < 3;
        return decision;
      });
  ReliableOptions reliability;
  reliability.retransmit_timeout_us = 500;
  reliability.max_backoff_us = 2000;
  reliability.scan_interval_us = 200;
  ReliableLink link(&transport, reliability);
  std::atomic<int> received{0};
  ASSERT_TRUE(
      link.BindReceiver(1, [&](const Notification&) { ++received; }).ok());
  const uint64_t sender = link.RegisterSender();
  ASSERT_TRUE(link.Publish(sender, MakeNote(1, 7)).ok());
  ASSERT_TRUE(link.WaitSettled(30'000'000));
  EXPECT_EQ(received.load(), 1);
  LinkStats stats = link.stats();
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_GE(stats.redelivered, 3);
  EXPECT_EQ(stats.dead_lettered, 0);
}

TEST(ReliableLinkTest, DuplicatedFramesAreSuppressedByDedup) {
  TransportOptions options;
  options.faults.duplicate_probability = 1.0;  // Every frame twice.
  InProcessTransport transport(options);
  ReliableLink link(&transport);
  std::mutex mu;
  std::vector<int> received;
  ASSERT_TRUE(link.BindReceiver(1, [&](const Notification& note) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(TagOf(note));
  }).ok());
  const uint64_t sender = link.RegisterSender();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(link.Publish(sender, MakeNote(1, i)).ok());
  }
  ASSERT_TRUE(link.WaitSettled(30'000'000));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[i], i);
  EXPECT_GE(link.stats().dedup_suppressed, 10);
}

TEST(ReliableLinkTest, GarbageFramesCountDecodeErrors) {
  InProcessTransport transport;
  ReliableLink link(&transport);
  std::atomic<int> received{0};
  ASSERT_TRUE(
      link.BindReceiver(1, [&](const Notification&) { ++received; }).ok());
  // Inject raw garbage below the link, straight into the LMR endpoint.
  ASSERT_TRUE(transport.Send(1, "this is not a frame").ok());
  ASSERT_TRUE(transport.WaitIdle(5'000'000));
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(link.stats().decode_errors, 1);
}

}  // namespace
}  // namespace mdv::net
