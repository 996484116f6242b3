#pragma once
// SYN flood detector (§3: "SYN floods can also be identified in real
// time with simple Ruru modules").
//
// Runs *before* anonymization, on the capture side of the pipeline: it
// consumes SYN events and handshake completions keyed by the target
// server, and closes fixed windows as time advances.  A window alerts
// when a target received many SYNs with a low completion ratio; each
// alert goes to the sink as its window closes.
//
// Every worker feeds one detector, so its mutex is shared: the batched
// calls take it once per worker burst of SYNs and once per flushed
// sample batch, not once per packet.

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>

#include "anomaly/alert.hpp"
#include "flow/latency_sample.hpp"
#include "net/ip_address.hpp"

namespace ruru {

struct SynFloodConfig {
  Duration window = Duration::from_sec(1.0);
  std::uint64_t min_syns = 200;       ///< per window, per target
  double max_completion_ratio = 0.2;  ///< completions/syns below this = flood
};

class SynFloodDetector {
 public:
  explicit SynFloodDetector(SynFloodConfig config = {}, AlertSink sink = {})
      : config_(config), sink_(std::move(sink)), window_(config.window) {}

  /// A SYN towards `server` observed at `time`. Thread-safe.
  void on_syn(Timestamp time, Ipv4Address server);
  /// A burst's SYNs in capture order, under one lock: the same counts and
  /// alerts as on_syn() for each.  Thread-safe.
  void on_syns(std::span<const SynEvent> syns);
  /// A completed handshake towards `server`.  Thread-safe.
  void on_completion(Timestamp time, Ipv4Address server);
  /// A flushed sample batch, under one lock: on_completion() for each
  /// IPv4 handshake sample.  In-flow samples are skipped — they are not
  /// new connections and would dilute the SYN ratio.  Thread-safe.
  void on_completions(std::span<const LatencySample> samples);

  /// Force-close the current window (end of run).
  void flush();

 private:
  struct Counts {
    std::uint64_t syns = 0;
    std::uint64_t completions = 0;
  };

  void close_window_locked(Timestamp start);
  void count_locked(Timestamp time, Ipv4Address server, std::uint64_t Counts::*field);

  SynFloodConfig config_;
  AlertSink sink_;
  std::mutex mu_;
  TumblingWindow window_;
  std::unordered_map<Ipv4Address, Counts> counts_;
};

}  // namespace ruru
