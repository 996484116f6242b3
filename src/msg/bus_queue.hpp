#pragma once
// Lock-free subscription queue: MpmcRing + close semantics + HWM.
//
// The bus publish path must take zero locks — a publisher's offer is a
// CAS ticket claim on the ring plus two relaxed counter bumps, never a
// mutex, and a full queue drops instead of blocking.  The queue itself
// only offers non-blocking ops; the bus's one blocking receive loop
// (Subscription::recv_shard) is built from them with the spin -> yield
// -> sleep Backoff below instead of a condition variable, so no mutex
// exists anywhere on the path.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <thread>

#include "driver/ring.hpp"

namespace ruru {

namespace detail {

/// Escalating wait: brief spin, then yield, then short sleeps. Keeps
/// wakeup latency in the tens of microseconds without a condvar.
class Backoff {
 public:
  void pause() {
    if (rounds_ < kSpinRounds) {
      ++rounds_;
    } else if (rounds_ < kSpinRounds + kYieldRounds) {
      ++rounds_;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

 private:
  static constexpr int kSpinRounds = 64;
  static constexpr int kYieldRounds = 32;
  int rounds_ = 0;
};

}  // namespace detail

template <typename T>
class BusQueue {
 public:
  /// `hwm` is enforced exactly even when it is not a power of two (the
  /// backing ring rounds its capacity up; the extra slots stay unused).
  explicit BusQueue(std::size_t hwm) : ring_(hwm < 2 ? 2 : hwm), hwm_(hwm == 0 ? 1 : hwm) {}

  BusQueue(const BusQueue&) = delete;
  BusQueue& operator=(const BusQueue&) = delete;

  /// Non-blocking; false when at the HWM or closed. Lock-free.
  bool try_push(T value) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (ring_.size() >= hwm_) return false;
    return ring_.try_push_from(value);
  }

  /// Non-blocking pop. Lock-free.
  std::optional<T> try_pop() { return ring_.try_pop(); }

  /// After close(): pushes fail, pops drain the backlog.  Idempotent;
  /// wakes pollers by virtue of them polling.
  void close() { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }
  /// Counts a push that claimed its ring ticket before close() even while
  /// it is still publishing, so closed() with size() == 0 means drained.
  [[nodiscard]] std::size_t size() const { return ring_.size(); }

 private:
  MpmcRing<T> ring_;
  std::size_t hwm_;
  std::atomic<bool> closed_{false};
};

}  // namespace ruru
