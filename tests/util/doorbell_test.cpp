#include "util/doorbell.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/spsc_ring.hpp"

namespace ruru {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using Clock = std::chrono::steady_clock;

TEST(Doorbell, RingWithNoWaiterWakesNobody) {
  Doorbell bell;
  EXPECT_FALSE(bell.ring());
  EXPECT_FALSE(bell.ring());
}

TEST(Doorbell, ParkReturnsAtOnceWhenTheRecheckFindsWork) {
  Doorbell bell;
  const auto t0 = Clock::now();
  EXPECT_EQ(bell.park([] { return true; }, seconds(10)), ParkResult::kReady);
  EXPECT_LT(Clock::now() - t0, seconds(5));
  // The park deregistered: a ring now finds no waiter and makes no syscall.
  EXPECT_FALSE(bell.ring());
}

TEST(Doorbell, ParkTimesOutWhenNothingRings) {
  Doorbell bell;
  EXPECT_EQ(bell.park([] { return false; }, milliseconds(2)), ParkResult::kTimedOut);
  EXPECT_FALSE(bell.ring());
}

// The lost-wake-up check.  Between finding the ring empty and parking,
// the consumer often waits a varying few hundred ns, as a poller does
// between its last empty poll and its park, so the producer's push
// lands in that gap.  Only the re-check after registering catches such
// a push; a consumer that sleeps through it sleeps out the whole 10 s
// timeout, so one timed-out park is one lost wake-up.  The other half
// of the handoffs park at once and are woken by the ring.
TEST(Doorbell, PingPongLosesNoWakeUp) {
  constexpr std::uint32_t kHandoffs = 20'000;
  SpscRing<std::uint32_t> ring(4);
  Doorbell bell;
  std::atomic<std::uint32_t> acked{0};
  std::atomic<bool> failed{false};
  std::uint32_t timeouts = 0;
  std::uint32_t slept = 0;
  std::uint32_t out_of_order = 0;

  std::thread consumer([&] {
    std::uint32_t expect = 0;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    std::atomic<std::uint64_t> spin{0};  // the delay loop's busy work
    while (expect < kHandoffs) {
      if (const auto v = ring.try_pop()) {
        out_of_order += *v != expect ? 1 : 0;
        acked.store(++expect, std::memory_order_release);
        continue;
      }
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const std::uint64_t delay = (rng & 1) != 0 ? (rng >> 1) & 511 : 0;
      for (std::uint64_t k = 0; k < delay; ++k) spin.store(k, std::memory_order_relaxed);
      const ParkResult r = bell.park([&] { return ring.size() != 0; }, seconds(10));
      slept += r != ParkResult::kReady ? 1 : 0;
      if (r == ParkResult::kTimedOut) {
        ++timeouts;
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  });
  for (std::uint32_t i = 0; i < kHandoffs && !failed.load(std::memory_order_acquire); ++i) {
    EXPECT_TRUE(ring.try_push(i));  // one item in flight: never full
    bell.ring();
    while (acked.load(std::memory_order_acquire) <= i &&
           !failed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(timeouts, 0u);
  EXPECT_EQ(acked.load(), kHandoffs);
  EXPECT_EQ(out_of_order, 0u);
  // Many handoffs really did go through a futex wait.
  EXPECT_GT(slept, kHandoffs / 10);
}

// One ring must wake every parked consumer: with two sharing a
// doorbell, a single flag cleared by the first wake would leave the
// second asleep until its timeout.
TEST(Doorbell, OneRingWakesEveryParkedConsumer) {
  Doorbell bell;
  std::atomic<bool> go{false};
  std::atomic<int> woken{0};
  std::atomic<int> timed_out{0};
  const auto consumer = [&] {
    while (!go.load(std::memory_order_acquire)) {
      const ParkResult r =
          bell.park([&] { return go.load(std::memory_order_acquire); }, seconds(10));
      if (r == ParkResult::kTimedOut) timed_out.fetch_add(1);
    }
    woken.fetch_add(1);
  };
  std::thread a(consumer);
  std::thread b(consumer);
  std::this_thread::sleep_for(milliseconds(50));  // both park
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  bell.ring();
  a.join();
  b.join();
  EXPECT_EQ(woken.load(), 2);
  EXPECT_EQ(timed_out.load(), 0);
  EXPECT_LT(Clock::now() - t0, seconds(5));
}

}  // namespace
}  // namespace ruru
