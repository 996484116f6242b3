#pragma once
// SYN flood detector (§3: "SYN floods can also be identified in real
// time with simple Ruru modules").
//
// Runs *before* anonymization, on the capture side of the pipeline: it
// consumes per-packet SYN events and handshake completions keyed by the
// target server, and closes fixed windows as time advances.  A window
// alerts when a target received many SYNs with a low completion ratio.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "anomaly/alert.hpp"
#include "net/ip_address.hpp"

namespace ruru {

struct SynFloodConfig {
  Duration window = Duration::from_sec(1.0);
  std::uint64_t min_syns = 200;       ///< per window, per target
  double max_completion_ratio = 0.2;  ///< completions/syns below this = flood
};

class SynFloodDetector {
 public:
  explicit SynFloodDetector(SynFloodConfig config = {})
      : config_(config), window_(config.window) {}

  /// A SYN towards `server` observed at `time`. Thread-safe.
  void on_syn(Timestamp time, Ipv4Address server);
  /// A completed handshake towards `server`.
  void on_completion(Timestamp time, Ipv4Address server);

  /// Force-close the current window (end of run). Appends alerts found.
  void flush(std::vector<Alert>& out);

  /// Alerts raised by closed windows so far.
  [[nodiscard]] std::vector<Alert> take_alerts();

 private:
  struct Counts {
    std::uint64_t syns = 0;
    std::uint64_t completions = 0;
  };

  void close_window_locked(Timestamp start);

  SynFloodConfig config_;
  std::mutex mu_;
  TumblingWindow window_;
  std::unordered_map<Ipv4Address, Counts> counts_;
  std::vector<Alert> alerts_;
};

}  // namespace ruru
