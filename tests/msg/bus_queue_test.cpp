#include "msg/bus_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ruru {
namespace {

TEST(BusQueue, FifoWithinCapacity) {
  BusQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BusQueue, EnforcesNonPowerOfTwoHwmExactly) {
  BusQueue<int> q(3);  // backing ring rounds to 4; HWM must stay 3
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));
  EXPECT_EQ(q.size(), 3u);
}

TEST(BusQueue, HwmOfOne) {
  BusQueue<int> q(1);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_TRUE(q.try_push(2));
}

TEST(BusQueue, CloseDrainsThenReportsClosed) {
  BusQueue<int> q(8);
  EXPECT_TRUE(q.try_push(1));
  q.close();
  EXPECT_FALSE(q.try_push(2));
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.try_pop().value(), 1);      // backlog drains
  EXPECT_FALSE(q.try_pop().has_value());  // then closed and empty
  EXPECT_EQ(q.size(), 0u);
}

TEST(BusQueue, ConcurrentProducersConsumersConserveItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  BusQueue<std::uint64_t> q(256);

  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (true) {
        if (auto v = q.try_pop()) {
          popped_sum.fetch_add(*v, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        } else if (q.closed() && q.size() == 0) {
          break;  // closed and drained: nothing more can arrive
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Drop-at-HWM is the only policy: a producer that must not lose
      // an item retries until a consumer frees space.
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!q.try_push(static_cast<std::uint64_t>(p) * kPerProducer + i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : threads) t.join();

  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), n);
  EXPECT_EQ(popped_sum.load(), n * (n - 1) / 2);  // every value exactly once
}

}  // namespace
}  // namespace ruru
