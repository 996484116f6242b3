#pragma once
// Alerts raised by the anomaly modules (§3: latency micro-glitches,
// SYN floods, unusual connection counts).

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace ruru {

struct Alert {
  Timestamp time;
  std::string kind;     ///< "latency-spike", "periodic-glitch", "syn-flood", ...
  std::string subject;  ///< what it concerns ("Auckland|Los Angeles", "10.1.0.80", ...)
  double score = 0.0;   ///< detector-specific severity (z-score, ratio, ...)
  std::string detail;
};

/// Where a windowed detector hands each alert the moment its window
/// closes.  It runs under the detector's mutex, so it may take only leaf
/// locks (AlertLog's).  An empty sink drops the alerts.
using AlertSink = std::function<void(Alert)>;

/// Thread-safe alert collector shared by all detectors in a pipeline.
class AlertLog {
 public:
  void raise(Alert alert) {
    std::lock_guard lock(mu_);
    alerts_.push_back(std::move(alert));
  }

  [[nodiscard]] std::vector<Alert> snapshot() const {
    std::lock_guard lock(mu_);
    return alerts_;
  }

  [[nodiscard]] std::size_t count() const {
    std::lock_guard lock(mu_);
    return alerts_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Alert> alerts_;
};

}  // namespace ruru
