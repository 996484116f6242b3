#pragma once
// Doorbell: where an idle poller parks and what its producer rings.
//
// Every poller in the pipeline (a worker on its RX queue, an enricher
// on its bus queues) follows one idle policy: spin a bounded number of
// empty polls, then park here until a producer rings or a bounded
// timeout passes.  This is DPDK l3fwd-power's rx-interrupt mode, with
// a futex in place of the interrupt's eventfd.
//
// The handshake loses no wake-up and needs no standalone fence:
//  * consumer: register as a waiter (a seq_cst RMW), re-check its
//    queues, and only then FUTEX_WAIT;
//  * producer: make its release store (the push), then read the waiter
//    count with a seq_cst RMW, and FUTEX_WAKE only when it is non-zero.
// Every write to the state word is an RMW, so the word's modification
// order is one chain of synchronizes-with edges.  If the producer's RMW
// comes first, the consumer's re-check sees the push.  If the
// consumer's comes first, the producer sees the waiter.
//
// The state word packs a wake epoch (high half, the futex word) with
// the waiter count (low half).  A producer that finds waiters bumps the
// epoch and zeroes the count in one CAS, then wakes every sleeper.  So
// any number of consumers may park on one doorbell (an enrichment pool
// parks all its receivers on one subscription) and each re-checks its
// own queues; and one park costs its producer at most one syscall,
// however many pushes follow before the sleeper runs.  With no waiter a
// ring is one uncontended RMW and no syscall.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/spsc_ring.hpp"  // kCacheLine

namespace ruru {

/// The bound on every park.  A poller that checks a stop flag between
/// parks sees it this often with no traffic.  The bound also caps how
/// deeply an idle core sleeps, which sets the tail: on `live` (4-vCPU
/// VM), a 1 s or 10 ms bound on the bus park read sample_latency_p99_us
/// 223-307 µs over 13 runs, a 1 ms bound 55-225 µs over 13.
inline constexpr std::chrono::milliseconds kParkTimeout{1};

/// How a park ended.
enum class ParkResult : std::uint8_t {
  kReady,     ///< the re-check found work: never slept
  kWoken,     ///< slept until a ring (or an early futex return)
  kTimedOut,  ///< slept the whole timeout
};

class Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Producer side, after the push's release store.  Returns true when
  /// it woke parked consumers, the only case that makes a syscall.
  bool ring() {
    // An RMW, not a load: it orders the push before the check.
    std::uint64_t s = state_.fetch_add(0, std::memory_order_seq_cst);
    while (waiters(s) != 0) {
      if (state_.compare_exchange_weak(s, next_epoch(s), std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        wake_all();
        return true;
      }
    }
    return false;
  }

  /// Consumer side: register as a waiter, then sleep for at most
  /// `timeout` unless `ready()`, the caller's re-check of its queues,
  /// finds that work arrived before the registration took effect.
  template <typename Ready>
  ParkResult park(Ready&& ready, std::chrono::nanoseconds timeout) {
    const std::uint32_t epoch = epoch_of(state_.fetch_add(1, std::memory_order_seq_cst));
    const ParkResult result = ready() ? ParkResult::kReady : wait(epoch, timeout);
    // Deregister, unless a ring already did: a ring zeroes the count in
    // the same CAS that moves the epoch on.
    std::uint64_t s = state_.load(std::memory_order_relaxed);
    while (epoch_of(s) == epoch &&
           !state_.compare_exchange_weak(s, s - 1, std::memory_order_seq_cst,
                                         std::memory_order_relaxed)) {
    }
    return result;
  }

 private:
  static std::uint32_t waiters(std::uint64_t s) { return static_cast<std::uint32_t>(s); }
  static std::uint32_t epoch_of(std::uint64_t s) { return static_cast<std::uint32_t>(s >> 32); }
  static std::uint64_t next_epoch(std::uint64_t s) {
    return ((s >> 32) + 1) << 32;  // count zeroed, epoch moved on
  }

  /// FUTEX_WAIT on the epoch half while it still reads `epoch`.
  ParkResult wait(std::uint32_t epoch, std::chrono::nanoseconds timeout);
  /// FUTEX_WAKE every sleeper on the epoch half.
  void wake_all();

  alignas(kCacheLine) std::atomic<std::uint64_t> state_{0};
};

}  // namespace ruru
