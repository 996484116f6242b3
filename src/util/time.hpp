#pragma once
// Nanosecond timestamps and clocks.
//
// Ruru records three sub-microsecond timestamps per TCP flow (SYN,
// SYN-ACK, ACK).  Everything in the pipeline speaks `Timestamp`:
// a signed 64-bit count of nanoseconds since an arbitrary epoch.
// The simulated substrate uses a manually-advanced `SimClock`; live
// components use `SystemClock`.

#include <chrono>
#include <compare>
#include <cstdint>
#include <string>

namespace ruru {

/// A point in time, nanoseconds since an arbitrary epoch.
/// Plain value type: cheap to copy, totally ordered.
struct Timestamp {
  std::int64_t ns = 0;

  friend constexpr auto operator<=>(Timestamp, Timestamp) = default;

  static constexpr Timestamp from_ns(std::int64_t v) { return Timestamp{v}; }
  static constexpr Timestamp from_us(std::int64_t v) { return Timestamp{v * 1'000}; }
  static constexpr Timestamp from_ms(std::int64_t v) { return Timestamp{v * 1'000'000}; }
  static constexpr Timestamp from_sec(double v) {
    return Timestamp{static_cast<std::int64_t>(v * 1e9)};
  }

  [[nodiscard]] constexpr double to_sec() const { return static_cast<double>(ns) / 1e9; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns) / 1e6; }
  [[nodiscard]] constexpr std::int64_t to_us() const { return ns / 1'000; }
};

/// A signed span of time in nanoseconds.
struct Duration {
  std::int64_t ns = 0;

  friend constexpr auto operator<=>(Duration, Duration) = default;

  static constexpr Duration from_ns(std::int64_t v) { return Duration{v}; }
  static constexpr Duration from_us(std::int64_t v) { return Duration{v * 1'000}; }
  static constexpr Duration from_ms(std::int64_t v) { return Duration{v * 1'000'000}; }
  static constexpr Duration from_sec(double v) {
    return Duration{static_cast<std::int64_t>(v * 1e9)};
  }

  [[nodiscard]] constexpr double to_sec() const { return static_cast<double>(ns) / 1e9; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns) / 1e6; }
};

constexpr Duration operator-(Timestamp a, Timestamp b) { return Duration{a.ns - b.ns}; }
constexpr Timestamp operator+(Timestamp t, Duration d) { return Timestamp{t.ns + d.ns}; }
constexpr Timestamp operator-(Timestamp t, Duration d) { return Timestamp{t.ns - d.ns}; }
constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns + b.ns}; }
constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns - b.ns}; }
constexpr Duration operator*(Duration d, std::int64_t k) { return Duration{d.ns * k}; }
constexpr Duration operator/(Duration d, std::int64_t k) { return Duration{d.ns / k}; }

/// Floor division for w > 0: the index of the width-`w` window holding
/// `x`, so -1 falls in window -1, not 0.  Defined over the whole int64
/// range.
constexpr std::int64_t floor_div(std::int64_t x, std::int64_t w) {
  return x / w - (x % w < 0 ? 1 : 0);
}

/// Fixed, back-to-back windows of capture time, aligned to multiples of
/// the width.  The first event opens the window holding it; a later
/// event first closes every window it has passed, empty ones included.
/// An event earlier than the open window leaves it open (the owner
/// counts it there).
/// Not thread-safe: the owner serializes events.  Aligned starts must be
/// representable, i.e. events lie at least one width above INT64_MIN.
class TumblingWindow {
 public:
  explicit TumblingWindow(Duration width) : width_(width) {}

  /// Moves to the window holding `t`, calling close(start) for each
  /// window left behind, oldest first.
  template <typename Close>
  void advance(Timestamp t, Close&& close) {
    if (!open_) {
      start_ = Timestamp{floor_div(t.ns, width_.ns) * width_.ns};
      open_ = true;
      return;
    }
    while (t.ns - start_.ns >= width_.ns) {
      close(start_);
      start_ = start_ + width_;
    }
  }

  /// Closes the open window, if any (end of run); the next event opens
  /// a fresh one.
  template <typename Close>
  void flush(Close&& close) {
    if (open_) close(start_);
    open_ = false;
  }

  [[nodiscard]] Duration width() const { return width_; }

 private:
  Duration width_;
  Timestamp start_{};
  bool open_ = false;
};

/// Formats a duration with an adaptive unit, e.g. "4000.0 ms" or "812 ns".
[[nodiscard]] std::string to_string(Duration d);
/// Formats a timestamp as seconds with millisecond precision, e.g. "t=12.345s".
[[nodiscard]] std::string to_string(Timestamp t);

/// Abstract time source so pipeline stages can run against simulated time.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual Timestamp now() const = 0;
};

/// Wall clock backed by std::chrono::steady_clock.
class SystemClock final : public Clock {
 public:
  [[nodiscard]] Timestamp now() const override {
    return Timestamp{std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count()};
  }
};

/// Manually-advanced clock for deterministic simulation and tests.
class SimClock final : public Clock {
 public:
  SimClock() = default;
  explicit SimClock(Timestamp start) : now_(start) {}

  [[nodiscard]] Timestamp now() const override { return now_; }
  void advance(Duration d) { now_ = now_ + d; }
  void set(Timestamp t) { now_ = t; }

 private:
  Timestamp now_{};
};

}  // namespace ruru
