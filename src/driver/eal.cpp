#include "driver/eal.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/logging.hpp"

namespace ruru {

bool LcoreLauncher::pin_self(int cpu) {
  if (cpu < 0) return false;
#if defined(__linux__)
  if (cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;  // affinity unsupported on this platform; run unpinned
#endif
}

std::uint32_t LcoreLauncher::launch(LcoreMain main, int pin_cpu) {
  const auto id = static_cast<std::uint32_t>(threads_.size());
  threads_.emplace_back([this, id, pin_cpu, main = std::move(main)] {
    const ThreadCpuMeter::Member metered(cpu_);
    if (pin_cpu != kNoCpuPin) {
      if (pin_self(pin_cpu)) {
        pinned_.fetch_add(1, std::memory_order_acq_rel);
      } else {
        pin_failures_.fetch_add(1, std::memory_order_acq_rel);
        RURU_LOG(kWarn, "driver") << "lcore " << id << ": could not pin to CPU " << pin_cpu
                                  << ", running unpinned";
      }
    }
    main(id, stop_);
  });
  return id;
}

void LcoreLauncher::stop_and_join() {
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  stop_.store(false, std::memory_order_release);
}

}  // namespace ruru
