#include "msg/pubsub.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

namespace ruru {
namespace {

Message msg(std::string_view topic, std::string_view payload) {
  Message m(topic);
  m.add(Frame::from_string(payload));
  return m;
}

TEST(PubSub, DeliverToMatchingSubscriber) {
  PubSocket pub;
  auto sub = pub.subscribe("ruru.");
  EXPECT_EQ(pub.publish(msg("ruru.latency", "x")), 1u);
  const auto m = sub->try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->topic(), "ruru.latency");
  EXPECT_EQ(m->frames[1].view(), "x");
}

TEST(PubSub, TopicPrefixFiltering) {
  PubSocket pub;
  auto lat = pub.subscribe("ruru.latency");
  auto all = pub.subscribe("");
  auto other = pub.subscribe("ruru.alerts");

  pub.publish(msg("ruru.latency", "a"));
  EXPECT_TRUE(lat->try_recv().has_value());
  EXPECT_TRUE(all->try_recv().has_value());
  EXPECT_FALSE(other->try_recv().has_value());
  EXPECT_EQ(other->delivered(), 0u);
}

TEST(PubSub, HwmDropsInsteadOfBlocking) {
  PubSocket pub;
  auto sub = pub.subscribe("t", /*hwm=*/4);
  for (int i = 0; i < 10; ++i) pub.publish(msg("t", "x"));
  EXPECT_EQ(sub->delivered(), 4u);
  EXPECT_EQ(sub->dropped(), 6u);
  EXPECT_EQ(sub->pending(), 4u);
  // The publisher itself never blocked: all 10 publishes returned.
  EXPECT_EQ(pub.published(), 10u);
}

TEST(PubSub, NoSubscribersIsFine) {
  PubSocket pub;
  EXPECT_EQ(pub.publish(msg("t", "x")), 0u);
}

TEST(PubSub, MultipleSubscribersEachGetACopy) {
  PubSocket pub;
  auto a = pub.subscribe("");
  auto b = pub.subscribe("");
  pub.publish(msg("t", "payload"));
  const auto ma = a->try_recv();
  const auto mb = b->try_recv();
  ASSERT_TRUE(ma && mb);
  // Zero-copy: both received messages share the same payload buffer.
  EXPECT_EQ(ma->frames[1].data(), mb->frames[1].data());
}

TEST(PubSub, CloseAllSignalsConsumers) {
  PubSocket pub;
  auto sub = pub.subscribe("");
  pub.publish(msg("t", "1"));
  pub.close_all();
  EXPECT_TRUE(sub->recv().has_value());   // drains the backlog
  EXPECT_FALSE(sub->recv().has_value());  // then reports closed
}

TEST(PubSub, BlockingRecvWokenByPublish) {
  PubSocket pub;
  auto sub = pub.subscribe("");
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const auto m = sub->recv();
    got = m.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pub.publish(msg("t", "wake"));
  consumer.join();
  EXPECT_TRUE(got.load());
}

// The wake tests park through wait_shard() with a 10 s timeout, far
// past recv_shard()'s 1 ms bound: a wake-up that does not come shows as
// a timed-out park, not as a millisecond of extra latency.  (A receiver
// the scheduler held off until after the publish returns kReady.)
constexpr auto kLongPark = std::chrono::seconds(10);

/// Waits until `started` threads are running, then long enough for them
/// to reach their park.
void let_park(const std::atomic<int>& running, int started) {
  while (running.load() < started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(PubSub, ParkedShardWokenByPublishOnItsLane) {
  PubSocket pub(4096, /*fanin_lanes=*/2);
  auto sub = pub.subscribe("");
  std::atomic<int> running{0};
  std::atomic<int> shard0_got{0};
  std::thread shard0([&] {
    running.fetch_add(1);
    while (sub->recv_shard(0, 2)) shard0_got.fetch_add(1);
  });
  ParkResult shard1_woke = ParkResult::kReady;
  std::thread shard1([&] {
    running.fetch_add(1);
    shard1_woke = sub->wait_shard(1, 2, kLongPark);
  });
  let_park(running, 2);
  pub.publish_lane(1, msg("t", "lane1"));
  shard1.join();
  EXPECT_NE(shard1_woke, ParkResult::kTimedOut);
  const auto got = sub->try_recv_shard(1, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frames[1].view(), "lane1");
  pub.close_all();
  shard0.join();
  EXPECT_EQ(shard0_got.load(), 0);  // lane 1 is not shard 0's
  EXPECT_GE(sub->parks(), 2u);      // both receivers slept on the doorbell
}

// An unsharded pool shares every queue and one doorbell: one publish
// wakes both parked receivers, so neither sleeps on to its timeout.
TEST(PubSub, ParkedPoolReceiversEachWokenByPublish) {
  PubSocket pub;
  auto sub = pub.subscribe("");
  std::atomic<int> running{0};
  std::array<ParkResult, 2> woke{ParkResult::kReady, ParkResult::kReady};
  std::array<std::thread, 2> receivers;
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    receivers[i] = std::thread([&, i] {
      running.fetch_add(1);
      woke[i] = sub->wait_shard(0, 1, kLongPark);
    });
  }
  let_park(running, 2);
  pub.publish(msg("t", "a"));
  for (auto& r : receivers) r.join();
  EXPECT_NE(woke[0], ParkResult::kTimedOut);
  EXPECT_NE(woke[1], ParkResult::kTimedOut);
}

TEST(PubSub, CloseWakesAParkedReceiverAtOnce) {
  PubSocket pub;
  auto sub = pub.subscribe("");
  std::atomic<int> running{0};
  ParkResult woke = ParkResult::kReady;
  std::thread receiver([&] {
    running.fetch_add(1);
    woke = sub->wait_shard(0, 1, kLongPark);
  });
  let_park(running, 1);
  sub->close();
  receiver.join();
  EXPECT_NE(woke, ParkResult::kTimedOut);
  EXPECT_FALSE(sub->recv().has_value());
}

TEST(PubSub, ConcurrentPublishersAllDeliver) {
  PubSocket pub;
  auto sub = pub.subscribe("", 1 << 16);
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> pubs;
  for (int t = 0; t < 4; ++t) {
    pubs.emplace_back([&pub] {
      for (int i = 0; i < kPerThread; ++i) pub.publish(msg("t", "x"));
    });
  }
  for (auto& t : pubs) t.join();
  EXPECT_EQ(sub->delivered(), 4u * kPerThread);
  EXPECT_EQ(sub->dropped(), 0u);
}

TEST(PubSub, WeightedPublishCountsSamples) {
  PubSocket pub;
  auto sub = pub.subscribe("t", /*hwm=*/2);
  // Two batched messages accepted, one dropped at the HWM: counters are
  // denominated in samples, so the drop loses the whole batch's worth.
  EXPECT_EQ(pub.publish(msg("t", "batch"), 32), 1u);
  EXPECT_EQ(pub.publish(msg("t", "batch"), 32), 1u);
  EXPECT_EQ(pub.publish(msg("t", "batch"), 32), 0u);
  EXPECT_EQ(pub.published(), 96u);
  EXPECT_EQ(sub->delivered(), 64u);
  EXPECT_EQ(sub->dropped(), 32u);
  EXPECT_EQ(sub->pending(), 2u);  // pending stays in messages
}

// Subscribing concurrently with a publishing thread must never lose or
// duplicate deliveries: a subscriber created before the stream starts
// sees every sample exactly once, and late subscribers see a suffix.
TEST(PubSub, ConcurrentSubscribeDuringPublish) {
  PubSocket pub;
  constexpr std::uint64_t kMessages = 20'000;
  auto early = pub.subscribe("t", kMessages + 16);

  std::atomic<bool> go{false};
  std::thread publisher([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (std::uint64_t i = 0; i < kMessages; ++i) pub.publish(msg("t", "x"));
  });

  std::vector<std::shared_ptr<Subscription>> late;
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 64; ++i) {
    late.push_back(pub.subscribe("t", kMessages + 16));
  }
  publisher.join();

  EXPECT_EQ(early->delivered(), kMessages);
  EXPECT_EQ(early->dropped(), 0u);
  std::uint64_t drained = 0;
  while (early->try_recv()) ++drained;
  EXPECT_EQ(drained, kMessages);
  for (const auto& sub : late) {
    // A late subscriber sees only messages published after it attached —
    // never more than the stream, never a drop at this HWM.
    EXPECT_LE(sub->delivered(), kMessages);
    EXPECT_EQ(sub->dropped(), 0u);
    std::uint64_t got = 0;
    while (sub->try_recv()) ++got;
    EXPECT_EQ(got, sub->delivered());
  }
  EXPECT_EQ(pub.subscriber_count(), 65u);
}

TEST(PubSub, SubscribeMidStreamSeesOnlyNewMessages) {
  PubSocket pub;
  pub.publish(msg("t", "before"));
  auto sub = pub.subscribe("");
  pub.publish(msg("t", "after"));
  const auto m = sub->try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->frames[1].view(), "after");
  EXPECT_FALSE(sub->try_recv().has_value());
}

}  // namespace
}  // namespace ruru
