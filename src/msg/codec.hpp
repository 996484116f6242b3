#pragma once
// Wire codec for latency measurements on the bus.
//
// The DPDK stage publishes (src ip, dst ip, internal, external) — the
// paper's exact record — on topic "ruru.latency".  Encoding is a fixed
// big-endian layout; decode validates length and version so bus
// consumers can reject foreign traffic.
//
// One payload version: [version=2][count BE16][records...], up to
// kMaxLatencyBatch samples per message — the batched feed the queue
// workers emit.  A single sample travels as a batch of one.  Any other
// version byte (the retired v1 single-sample format included) is
// refused like any foreign payload.

#include <span>
#include <vector>

#include "flow/latency_sample.hpp"
#include "msg/message.hpp"

namespace ruru {

inline constexpr std::string_view kLatencyTopic = "ruru.latency";

/// The interned topic frame: every latency message shares one buffer
/// instead of re-allocating the topic per publish.
[[nodiscard]] const Frame& latency_topic_frame();

/// Encodes up to kMaxLatencyBatch samples into one [topic, payload]
/// message. Samples beyond the bound are not encoded — callers (the
/// worker accumulator) flush at or below it.
[[nodiscard]] Message encode_latency_batch(std::span<const LatencySample> samples);

/// Decodes a batch payload, appending every sample to `out`.  Truncated
/// or oversized payloads, a foreign version byte, count/length
/// mismatches and corrupt records are all rejected as a whole: returns
/// false and leaves `out` exactly as it was.
[[nodiscard]] bool decode_latency_payload(const Frame& payload, std::vector<LatencySample>& out);

}  // namespace ruru
