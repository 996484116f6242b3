#pragma once
// Geo/AS-enriched latency record — what leaves Ruru Analytics.
//
// Privacy by construction: per §2 of the paper, "all original IP
// addresses are removed" after enrichment.  EnrichedSample therefore has
// no address fields at all; downstream consumers (TSDB, frontends) can
// only see locations and AS numbers.
//
// Both structs are trivially copyable PODs: names are carried as interned
// u32 ids into the process-wide geo_names() table (populated at DB load),
// so enriching a sample and handing it to every sink allocates nothing.
// Sinks resolve ids to strings only at format time via the accessors.

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "flow/latency_sample.hpp"
#include "geo/interner.hpp"
#include "util/time.hpp"

namespace ruru {

/// City/country key of an endpoint with no covering geo record.
/// Interner ids are dense and small, so it cannot collide with a real
/// id; every pair key, TSDB tag and alert subject uses this one value.
inline constexpr std::uint32_t kUnlocated = 0xFFFFFFFFu;

struct GeoInfo {
  double latitude = 0.0;
  double longitude = 0.0;
  std::uint32_t country_id = 0;  ///< geo_names() id; 0 == empty string
  std::uint32_t city_id = 0;
  std::uint32_t asn = 0;
  std::uint32_t org_id = 0;
  bool located = true;  ///< false when the DB had no covering range

  /// Format-time name resolution (string_views into the interner arena,
  /// valid for the process lifetime).
  [[nodiscard]] std::string_view city() const { return geo_names().view(city_id); }
  [[nodiscard]] std::string_view country() const { return geo_names().view(country_id); }
  [[nodiscard]] std::string_view as_org() const { return geo_names().view(org_id); }

  /// Interned city / country id, or kUnlocated.
  [[nodiscard]] std::uint32_t city_key() const { return located ? city_id : kUnlocated; }
  [[nodiscard]] std::uint32_t country_key() const { return located ? country_id : kUnlocated; }
};

/// Name of a city or country key: "?" for kUnlocated.
[[nodiscard]] inline std::string_view name_of(std::uint32_t key) {
  return key == kUnlocated ? std::string_view("?") : geo_names().view(key);
}

struct EnrichedSample {
  GeoInfo client;  ///< handshake initiator's location
  GeoInfo server;

  Duration internal;  ///< tap -> client -> tap
  Duration external;  ///< tap -> server -> tap
  Duration total;     ///< end-to-end RTT

  Timestamp started_at;    ///< time of the first SYN at the tap
  Timestamp completed_at;  ///< time of the handshake ACK at the tap
  std::uint16_t queue_id = 0;
  /// Flight-recorder id carried from the LatencySample (0 = untraced).
  /// Still POD — the id is a u32, never a pointer into tracer state.
  std::uint32_t trace_id = 0;
  /// Carried from the LatencySample: handshake vs in-flow vs one-sided.
  /// For in-flow kinds only one of internal/external is a measurement
  /// (toward_client picks which); the other is zero.
  SampleKind kind = SampleKind::kHandshake;
  bool toward_client = false;
};

/// Directed city pair: client city key in the high half, server's in
/// the low half.
[[nodiscard]] inline std::uint64_t city_pair_key(const EnrichedSample& s) {
  return (std::uint64_t{s.client.city_key()} << 32) | s.server.city_key();
}

/// "src|dst" label of a pair key built from city or country keys.
[[nodiscard]] inline std::string pair_label(std::uint64_t key) {
  return std::string(name_of(static_cast<std::uint32_t>(key >> 32))) + "|" +
         std::string(name_of(static_cast<std::uint32_t>(key)));
}

// The whole enrichment output must stay allocation-free to copy: a
// string or vector member sneaking in here re-introduces a malloc per
// sample per sink.
static_assert(std::is_trivially_copyable_v<GeoInfo>);
static_assert(std::is_trivially_copyable_v<EnrichedSample>);

}  // namespace ruru
