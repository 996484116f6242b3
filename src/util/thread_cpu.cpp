#include "util/thread_cpu.hpp"

#include <pthread.h>

#include <algorithm>

namespace ruru {

namespace {

std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

ThreadCpuMeter::Member::Member(ThreadCpuMeter& meter) : meter_(meter) {
  live_ = pthread_getcpuclockid(pthread_self(), &clock_) == 0;
  if (!live_) return;  // still banked on exit, just not readable live
  std::lock_guard lock(meter_.mu_);
  meter_.live_.push_back(clock_);
}

ThreadCpuMeter::Member::~Member() {
  const std::uint64_t own = clock_ns(CLOCK_THREAD_CPUTIME_ID);
  std::lock_guard lock(meter_.mu_);
  meter_.banked_ns_ += own;
  if (live_) {
    const auto it = std::find(meter_.live_.begin(), meter_.live_.end(), clock_);
    if (it != meter_.live_.end()) meter_.live_.erase(it);
  }
}

std::uint64_t ThreadCpuMeter::total_ns() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = banked_ns_;
  for (const clockid_t clock : live_) total += clock_ns(clock);
  return total;
}

}  // namespace ruru
