#pragma once
// Fixed-capacity packet buffer pool (simdpdk analogue of rte_mempool).
//
// All mbuf storage is allocated and faulted in once, up front.  The
// pool's own free list sits behind a mutex, and only cold paths take
// it: a producer cache's first stock and its refill when every recycle
// ring is empty, frees from threads that own no cache (an MbufPtr
// dropped in a test or at shutdown), and exhaustion accounting.  In
// steady state mbufs circulate without it: workers hand bursts back on
// per-queue recycle rings that the producer drains into its own cache
// (SimNic).  Exhaustion is an expected condition (no buffer for a
// frame) that the NIC counts as an rx drop, matching DPDK semantics
// when a pool runs dry.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "driver/mbuf.hpp"

namespace ruru {

class Mempool {
 public:
  /// `count` buffers of `buf_size` usable bytes each.
  Mempool(std::size_t count, std::size_t buf_size = 2048);

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;
  ~Mempool();

  /// Null when the pool is exhausted (counts one alloc failure).
  [[nodiscard]] MbufPtr alloc();

  /// Refills a producer-owned cache: moves up to `out.size()` free
  /// buffers into `out` under one lock and returns how many.  A caller
  /// refills only for a frame it has no buffer for, so a refill that
  /// finds the free list empty counts one alloc failure.
  std::size_t refill(std::span<MbufPtr> out);

  [[nodiscard]] std::size_t capacity() const { return count_; }
  /// Buffers on the pool's free list.  A live SimNic's producer caches
  /// and recycle rings hold idle buffers too; destroying it returns them.
  [[nodiscard]] std::size_t available() const;
  [[nodiscard]] std::uint64_t alloc_failures() const;

 private:
  friend struct MbufDeleter;
  void release(Mbuf* m);

  struct FreeBytes {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  const std::size_t count_;
  std::unique_ptr<std::uint8_t, FreeBytes> storage_;  // contiguous dataroom
  std::vector<Mbuf> mbufs_;                           // descriptor array
  mutable std::mutex mu_;
  std::vector<Mbuf*> free_list_;  // guarded by mu_
  std::uint64_t alloc_failures_ = 0;  // guarded by mu_
};

}  // namespace ruru
