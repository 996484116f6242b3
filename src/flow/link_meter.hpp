#pragma once
// Link-load meter: windowed packet/byte rates for the tapped link.
//
// The paper's §1 motivation contrasts Ruru with SNMP's five-minute load
// averages; operators still want the load view next to the latency view
// (the Grafana dashboards show both).  This meter is fed from the RX
// path (single producer) and closes fixed windows as packet timestamps
// advance — all in capture time, so replays are deterministic.

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace ruru {

struct LinkWindow {
  Timestamp start;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  Duration width;

  [[nodiscard]] double mbps() const {
    const double secs = width.to_sec();
    return secs > 0 ? static_cast<double>(bytes) * 8.0 / secs / 1e6 : 0.0;
  }
  [[nodiscard]] double pps() const {
    const double secs = width.to_sec();
    return secs > 0 ? static_cast<double>(packets) / secs : 0.0;
  }
};

class LinkMeter {
 public:
  explicit LinkMeter(Duration window = Duration::from_sec(1.0)) : window_(window) {}

  /// One packet observed at `t`. Single producer; timestamps
  /// non-decreasing (the tap sees packets in order).
  void on_packet(Timestamp t, std::size_t bytes);

  /// Windows closed so far (not including the one in progress).
  [[nodiscard]] const std::vector<LinkWindow>& closed() const { return closed_; }

  /// Force-close the in-progress window (end of run).
  void flush();

  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  void close(Timestamp start);

  TumblingWindow window_;
  std::uint64_t current_packets_ = 0;
  std::uint64_t current_bytes_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::vector<LinkWindow> closed_;
};

}  // namespace ruru
