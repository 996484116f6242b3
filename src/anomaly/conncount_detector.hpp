#pragma once
// Unusual-connection-count detector (§3: "unusual number of TCP
// connections between two locations").
//
// Counts completed handshakes per location pair in fixed windows and
// scores each window's count against an EWMA baseline per pair; an
// anomalous window's alert goes to the sink as the window closes.  Fed
// from EnrichedSample (post-anonymization — it only needs locations).
// Pairs are keyed on packed interned city ids; the "src|dst" text is
// built only when an alert actually fires.

#include <cstdint>
#include <map>
#include <mutex>

#include "analytics/enriched_sample.hpp"
#include "anomaly/alert.hpp"

namespace ruru {

struct ConnCountConfig {
  Duration window = Duration::from_sec(10.0);
  double alpha = 0.1;         ///< EWMA smoothing for per-pair counts
  double k_sigma = 5.0;       ///< alert threshold
  double min_sigma = 2.0;     ///< variance floor (counts)
  std::uint64_t warmup_windows = 5;
  std::uint64_t min_count = 20;  ///< ignore tiny spikes
};

class ConnCountDetector {
 public:
  explicit ConnCountDetector(ConnCountConfig config = {}, AlertSink sink = {})
      : config_(config), sink_(std::move(sink)), window_(config.window) {}

  /// Thread-safe.
  void add(const EnrichedSample& sample);

  /// Close the current window unconditionally (end of run).
  void flush();

 private:
  struct PairState {
    double mean = 0.0;
    double var = 0.0;
    std::uint64_t windows = 0;
  };

  void close_window_locked(Timestamp start);

  ConnCountConfig config_;
  AlertSink sink_;
  std::mutex mu_;
  TumblingWindow window_;
  std::map<std::uint64_t, std::uint64_t> window_counts_;  // (src_city << 32) | dst_city
  std::map<std::uint64_t, PairState> baselines_;
};

}  // namespace ruru
