#pragma once
// Lock-free subscription queue: MpmcRing + close semantics + HWM.
//
// The bus publish path must take zero locks — a publisher's offer is a
// CAS ticket claim on the ring plus two relaxed counter bumps, never a
// mutex, and a full queue drops instead of blocking.  The queue itself
// only offers non-blocking ops; the bus's one blocking receive
// (Subscription::recv_shard) spins a few empty polls over them, then
// parks on the subscription's Doorbell, which every offer and close()
// rings — a futex, not a condition variable, so no mutex exists
// anywhere on the path.

#include <atomic>
#include <cstddef>
#include <optional>

#include "driver/ring.hpp"

namespace ruru {

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

  /// After close(): pushes fail, pops drain the backlog.  Idempotent.
  /// (Parked receivers are woken by the subscription's doorbell.)
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
