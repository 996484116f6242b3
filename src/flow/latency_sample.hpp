#pragma once
// The measurement Ruru produces: one record per completed TCP handshake.
//
// Figure 1 of the paper: the tap records the SYN, the following SYN-ACK
// and the first ACK.  `external` (SYN -> SYN-ACK at the tap) covers
// tap -> server -> tap; `internal` (SYN-ACK -> ACK) covers
// tap -> client -> tap; their sum is the end-to-end RTT between the two
// endpoints.

#include <cstdint>

#include "net/ip_address.hpp"
#include "util/time.hpp"

namespace ruru {

/// Upper bound on samples per bus message (worker accumulators flush at
/// or below it; the batch codec rejects counts above it).
inline constexpr std::size_t kMaxLatencyBatch = 1024;

/// What a LatencySample measures.
enum class SampleKind : std::uint8_t {
  /// SYN / SYN-ACK / ACK triple — all three timestamps are distinct
  /// events; external() and internal() are both meaningful.
  kHandshake = 0,
  /// Continuous in-flow RTT from a TCP-timestamp echo (TSval noted at
  /// departure, TSecr matched on the reply).  Only one half of the path
  /// is measured; see `toward_client`.  The measured interval is carried
  /// in that half (the other two timestamps coincide), so external() /
  /// internal() / total() stay meaningful without new fields.
  kInflow = 1,
  /// One direction of the flow was never seen (asymmetric tap): the
  /// sample is the delta between consecutive TSval departures of the
  /// visible sender — pacing, not an RTT, but the only latency signal
  /// such a tap gets.
  kOneSided = 2,
};

struct LatencySample {
  IpAddress client;  ///< handshake initiator (sent the SYN)
  IpAddress server;  ///< responder
  std::uint16_t client_port = 0;
  std::uint16_t server_port = 0;

  Timestamp syn_time;
  Timestamp synack_time;
  Timestamp ack_time;

  std::uint32_t rss_hash = 0;
  std::uint16_t queue_id = 0;
  SampleKind kind = SampleKind::kHandshake;
  /// In-flow kinds only: true when the measured half is tap <-> client
  /// (the note left toward the client and its echo came back), false for
  /// tap <-> server.  Handshake samples leave it false.
  bool toward_client = false;
  /// Flight-recorder id (obs::trace_id_for of rss_hash); 0 = untraced.
  /// In-process metadata only — never serialized, so the wire format
  /// and the emitted sample bytes are identical with tracing on or off.
  std::uint32_t trace_id = 0;

  /// tap -> server -> tap half (paper: "external latency").
  [[nodiscard]] Duration external() const { return synack_time - syn_time; }
  /// tap -> client -> tap half (paper: "internal latency").
  [[nodiscard]] Duration internal() const { return ack_time - synack_time; }
  /// Full end-to-end RTT between client and server.
  [[nodiscard]] Duration total() const { return ack_time - syn_time; }
};

/// A SYN-only IPv4 segment as the SYN-flood hook sees it: its capture
/// time and the server it targets, taken before anonymization.
struct SynEvent {
  Timestamp time;
  Ipv4Address server;
};

}  // namespace ruru
