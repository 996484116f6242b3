#include "driver/mempool.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

// Linux 5.14; older headers lack the name, older kernels reject it.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace ruru {

namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;

// The dataroom, 2 MiB-aligned and faulted in before the first frame:
// transparent huge pages where the kernel grants them (one fault per
// 2 MiB instead of 512; with THP off the hint is ignored), and
// MADV_POPULATE_WRITE to take every fault in one call.  A kernel that
// refuses the populate gets a memset instead.  Either way RSS is paid
// here and the data path never faults.
std::uint8_t* alloc_dataroom(std::size_t bytes) {
  bytes = (std::max<std::size_t>(bytes, 1) + kHugePage - 1) / kHugePage * kHugePage;
  auto* p = static_cast<std::uint8_t*>(std::aligned_alloc(kHugePage, bytes));
  if (p == nullptr) throw std::bad_alloc();
  (void)madvise(p, bytes, MADV_HUGEPAGE);
  if (madvise(p, bytes, MADV_POPULATE_WRITE) != 0) std::memset(p, 0, bytes);
  return p;
}

}  // namespace

void MbufDeleter::operator()(Mbuf* m) const {
  if (m != nullptr && m->pool_ != nullptr) m->pool_->release(m);
}

Mempool::Mempool(std::size_t count, std::size_t buf_size)
    : count_(count), storage_(alloc_dataroom(count * buf_size)) {
  mbufs_.reserve(count);
  free_list_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    mbufs_.push_back(Mbuf(storage_.get() + i * buf_size, buf_size));
    mbufs_.back().pool_ = this;
  }
  // Push in reverse so the first alloc returns the first buffer.
  for (std::size_t i = count; i > 0; --i) free_list_.push_back(&mbufs_[i - 1]);
}

Mempool::~Mempool() = default;

MbufPtr Mempool::alloc() {
  std::lock_guard lock(mu_);
  if (free_list_.empty()) {
    ++alloc_failures_;
    return nullptr;
  }
  Mbuf* m = free_list_.back();
  free_list_.pop_back();
  // Reset per-packet state.
  m->length_ = 0;
  m->timestamp = Timestamp{};
  m->rss_hash = 0;
  m->queue_id = 0;
  m->port_id = 0;
  return MbufPtr(m);
}

std::size_t Mempool::refill(std::span<MbufPtr> out) {
  std::lock_guard lock(mu_);
  if (free_list_.empty()) {
    ++alloc_failures_;
    return 0;
  }
  const std::size_t n = out.size() < free_list_.size() ? out.size() : free_list_.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = MbufPtr(free_list_.back());
    free_list_.pop_back();
  }
  return n;
}

void Mempool::release(Mbuf* m) {
  std::lock_guard lock(mu_);
  free_list_.push_back(m);
}

std::size_t Mempool::available() const {
  std::lock_guard lock(mu_);
  return free_list_.size();
}

std::uint64_t Mempool::alloc_failures() const {
  std::lock_guard lock(mu_);
  return alloc_failures_;
}

}  // namespace ruru
