#include "msg/pubsub.hpp"

#include <gtest/gtest.h>

#include <atomic>
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
