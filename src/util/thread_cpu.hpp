#pragma once
// CPU time of a group of threads (one pipeline stage's), readable while
// they run.
//
// A live member is read through its pthread CPU clock.  A joined
// thread's clock is gone, so each member banks its own
// CLOCK_THREAD_CPUTIME_ID as it leaves.  The mutex guards membership
// and is taken only at thread start and exit and by readers, never on
// a data path.

#include <ctime>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ruru {

class ThreadCpuMeter {
 public:
  /// Scoped membership: the constructing thread joins the group; the
  /// destructor, which must run on that same thread, banks its CPU time.
  class Member {
   public:
    explicit Member(ThreadCpuMeter& meter);
    ~Member();
    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;

   private:
    ThreadCpuMeter& meter_;
    clockid_t clock_{};
    bool live_ = false;  ///< the thread's clock could be read
  };

  /// ns of CPU used by every member so far, departed ones included.
  [[nodiscard]] std::uint64_t total_ns() const;

 private:
  mutable std::mutex mu_;
  std::vector<clockid_t> live_;
  std::uint64_t banked_ns_ = 0;
};

}  // namespace ruru
