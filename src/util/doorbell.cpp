#include "util/doorbell.hpp"

#include <bit>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#else
#include <algorithm>
#include <thread>
#endif

namespace ruru {

namespace {

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t),
              "the futex sleeps on one half of the state word");

#if defined(__linux__)
/// The epoch half of a state word: the kernel reads it, C++ code never
/// does (every C++ access goes through the atomic).
std::uint32_t* epoch_word(std::atomic<std::uint64_t>& state) {
  return reinterpret_cast<std::uint32_t*>(&state) +
         (std::endian::native == std::endian::little ? 1 : 0);
}
#endif

}  // namespace

ParkResult Doorbell::wait(std::uint32_t epoch, std::chrono::nanoseconds timeout) {
#if defined(__linux__)
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(timeout);
  const timespec rel{static_cast<time_t>(secs.count()),
                     static_cast<long>((timeout - secs).count())};
  // 0: woken (or spurious); EAGAIN: the epoch moved before we slept;
  // EINTR: a signal.  Only ETIMEDOUT means nothing rang.
  const long rc = syscall(SYS_futex, epoch_word(state_), FUTEX_WAIT_PRIVATE, epoch, &rel,
                          nullptr, 0);
  return rc != 0 && errno == ETIMEDOUT ? ParkResult::kTimedOut : ParkResult::kWoken;
#else
  (void)epoch;
  std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(timeout,
                                                                 std::chrono::microseconds(50)));
  return ParkResult::kWoken;
#endif
}

void Doorbell::wake_all() {
#if defined(__linux__)
  syscall(SYS_futex, epoch_word(state_), FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#endif
}

}  // namespace ruru
