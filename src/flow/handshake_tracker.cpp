#include "flow/handshake_tracker.hpp"

namespace ruru {

std::optional<LatencySample> HandshakeTracker::process(const PacketView& pkt, Timestamp rx_time,
                                                       std::uint32_t rss_hash,
                                                       std::uint16_t queue_id) {
  return process_core(pkt, rx_time, rss_hash, queue_id).sample;
}

HandshakeTracker::CoreOutcome HandshakeTracker::process_core(const PacketView& pkt,
                                                             Timestamp rx_time,
                                                             std::uint32_t rss_hash,
                                                             std::uint16_t queue_id) {
  const FiveTuple tuple = pkt.tuple();
  const FlowKey key = FlowKey::from(tuple);
  const TcpHeader& tcp = pkt.tcp;
  CoreOutcome co;

  if (tcp.rst()) {
    ++stats_.rst_seen;
    const FlowTable::Slot s = table_.find(key, rss_hash, rx_time);
    if (s != FlowTable::kNoSlot) {
      // An RST kills tracking outright — the flow is dead, so even its
      // own timestamps are not worth noting (a dying flow draws no
      // echo).  co.erased keeps the in-flow layer off the dead slot.
      table_.erase(s);
      co.slot = s;
      co.erased = true;
    }
    return co;
  }

  if (tcp.is_syn_only()) {
    ++stats_.syn_seen;
    bool inserted = false;
    const FlowTable::Slot s = table_.find_or_insert(key, rss_hash, rx_time, inserted);
    if (s == FlowTable::kNoSlot) {
      ++stats_.table_drops;
      return co;
    }
    FlowData& d = table_.data(s);
    if (inserted) {
      d.syn_time = rx_time;
      d.syn_seq = tcp.seq;
      d.syn_forward = key.forward;
      d.state = HandshakeState::kAwaitSynAck;
    } else if (d.state == HandshakeState::kAwaitSynAck && d.syn_forward == key.forward &&
               d.syn_seq == tcp.seq) {
      // Retransmitted SYN: keep the first timestamp (paper semantics).
      ++stats_.syn_retransmissions;
    } else if (d.syn_forward != key.forward) {
      // Simultaneous open — out of scope for the handshake model; track
      // the earliest SYN only.
    } else if (d.syn_seq != tcp.seq) {
      // Same tuple, new ISN: a genuinely new connection attempt (port
      // reuse). Restart the measurement from this SYN.
      d.syn_time = rx_time;
      d.syn_seq = tcp.seq;
      d.syn_forward = key.forward;
      d.state = HandshakeState::kAwaitSynAck;
      d.synack_time = Timestamp{};
    }
    table_.touch(s, rx_time);
    co.slot = s;
    return co;
  }

  if (tcp.is_syn_ack()) {
    ++stats_.synack_seen;
    const FlowTable::Slot s = table_.find(key, rss_hash, rx_time);
    if (s == FlowTable::kNoSlot) {
      ++stats_.synack_unmatched;
      return co;
    }
    FlowData& d = table_.data(s);
    // The SYN-ACK must travel opposite to the SYN and acknowledge its ISN.
    const bool direction_ok = key.forward != d.syn_forward;
    const bool ack_ok = tcp.ack == d.syn_seq + 1;
    if (d.state == HandshakeState::kAwaitSynAck && direction_ok && ack_ok) {
      d.synack_time = rx_time;
      d.synack_seq = tcp.seq;
      d.state = HandshakeState::kAwaitAck;
    }
    // Duplicate SYN-ACK in kAwaitAck: ignored, first one stands.
    table_.touch(s, rx_time);
    co.slot = s;
    return co;
  }

  if (tcp.ack_flag()) {
    const FlowTable::Slot s = table_.find(key, rss_hash, rx_time);
    if (s == FlowTable::kNoSlot) return co;  // mid-flow traffic, not tracked
    table_.touch(s, rx_time);
    co.slot = s;
    FlowData& d = table_.data(s);
    if (d.state != HandshakeState::kAwaitAck) return co;
    // First ACK: same direction as the SYN, acknowledging the SYN-ACK ISN.
    const bool direction_ok = key.forward == d.syn_forward;
    const bool ack_ok = tcp.ack == d.synack_seq + 1;
    if (!direction_ok || !ack_ok) return co;

    ++stats_.ack_matched;
    LatencySample sample;
    const FiveTuple& canonical = table_.canonical(s);
    const FiveTuple client_oriented = d.syn_forward ? canonical : canonical.reversed();
    sample.client = client_oriented.src;
    sample.server = client_oriented.dst;
    sample.client_port = client_oriented.src_port;
    sample.server_port = client_oriented.dst_port;
    sample.syn_time = d.syn_time;
    sample.synack_time = d.synack_time;
    sample.ack_time = rx_time;
    sample.rss_hash = rss_hash;
    sample.queue_id = queue_id;
    ++stats_.samples_emitted;
    if (inflow_.enabled) {
      // Keep the slot: the in-flow kernel measures the rest of the flow.
      d.state = HandshakeState::kEstablished;
    } else {
      // Handshake measured; free the slot so long flows cost nothing more.
      table_.erase(s);
      co.erased = true;
    }
    co.sample = sample;
    return co;
  }

  return co;
}

void HandshakeTracker::process(const PacketView& pkt, Timestamp rx_time, std::uint32_t rss_hash,
                               std::uint16_t queue_id, std::vector<LatencySample>& out) {
  CoreOutcome co = process_core(pkt, rx_time, rss_hash, queue_id);
  if (co.sample) out.push_back(*co.sample);
  if (!inflow_.enabled || co.slot == FlowTable::kNoSlot || co.erased) return;
  const FlowKey key = FlowKey::from(pkt.tuple());
  if (const auto ts = pkt.tcp.timestamp_option()) {
    inflow_segment(co.slot, key.forward, pkt.payload_length > 0, pkt.tcp.syn(), pkt.tcp.fin(),
                   ts->ts_val, ts->ts_ecr, rx_time, rss_hash, queue_id, out);
  } else {
    table_.ts_state(co.slot).seen_dirs |= key.forward ? 1u : 2u;
  }
  // Teardown: the first FIN retires an established flow (its own
  // timestamps were processed above — a FIN still elicits an echo, but
  // whatever comes back after it is the peer's teardown, not a flow
  // we keep paying table space for).
  if (pkt.tcp.fin() && table_.data(co.slot).state == HandshakeState::kEstablished) {
    table_.erase(co.slot);
  }
}

HandshakeTracker::InflowLookup HandshakeTracker::inflow_lookup(const FlowKey& key,
                                                               std::uint32_t rss_hash,
                                                               Timestamp now) {
  InflowLookup r;
  const FlowTable::Slot s = table_.find(key, rss_hash, now);
  if (s == FlowTable::kNoSlot) return r;
  r.slot = s;
  if (table_.data(s).state != HandshakeState::kEstablished) {
    // Mid-handshake (including the completing ACK and one-sided flows
    // stuck in kAwaitSynAck): the state machine needs the full parse.
    r.verdict = InflowVerdict::kNeedParse;
    return r;
  }
  table_.touch(s, now);
  table_.ts_prefetch(s);  // rings stream in while the caller extracts options
  r.verdict = InflowVerdict::kEstablished;
  return r;
}

void HandshakeTracker::inflow_established(FlowTable::Slot slot, bool forward,
                                          const FastTsProbe& ts, Timestamp rx_time,
                                          std::uint32_t rss_hash, std::uint16_t queue_id,
                                          std::vector<LatencySample>& out) {
  if (ts.has_ts) {
    inflow_segment(slot, forward, ts.payload_len > 0, /*syn=*/false, /*fin=*/false, ts.ts_val,
                   ts.ts_ecr, rx_time, rss_hash, queue_id, out);
  } else {
    // No timestamps, but the direction is visibly alive — that gates
    // one-sided mode off, same as the full-parse path.
    table_.ts_state(slot).seen_dirs |= forward ? 1u : 2u;
  }
}

void HandshakeTracker::inflow_segment(FlowTable::Slot slot, bool forward, bool has_payload,
                                      bool syn, bool fin, std::uint32_t ts_val,
                                      std::uint32_t ts_ecr, Timestamp rx_time,
                                      std::uint32_t rss_hash, std::uint16_t queue_id,
                                      std::vector<LatencySample>& out) {
  TsFlowState& st = table_.ts_state(slot);
  const unsigned dir = forward ? 0 : 1;
  st.seen_dirs |= 1u << dir;

  // Match first: this packet's TSecr echoes a TSval the opposite
  // direction noted, and the note must be consumed even when this
  // packet also carries a new TSval of its own.
  if (ts_ecr != 0) {
    const std::int64_t departed = ts_match(table_.ts_ring(slot, 1 - dir), ts_ecr);
    if (departed != kTsNever) {
      ++inflow_stats_.ts_matches;
      emit_inflow(slot, dir, SampleKind::kInflow, Timestamp{departed}, rx_time, rss_hash,
                  queue_id, out);
    }
  }

  // Note only eliciting segments (payload, SYN, FIN): a pure ACK draws
  // no timely echo, so noting it would only flush live notes out of the
  // bounded ring.
  if (has_payload || syn || fin) {
    const TsNoteResult nr = ts_note(table_.ts_ring(slot, dir), st.dir[dir], ts_val, rx_time.ns);
    if (nr.noted) {
      if (nr.evicted) ++inflow_stats_.ts_ring_evictions;
      if (nr.wrapped) ++inflow_stats_.ts_wraps;
      if ((st.seen_dirs & (1u << (1 - dir))) == 0 && st.last_note_ns[dir] != kTsNever) {
        // Only one direction visible so far: emit the departure delta
        // (one-sided mode — sender pacing, the asymmetric tap's signal).
        emit_inflow(slot, dir, SampleKind::kOneSided, Timestamp{st.last_note_ns[dir]}, rx_time,
                    rss_hash, queue_id, out);
      }
      st.last_note_ns[dir] = rx_time.ns;
    }
  }
}

void HandshakeTracker::emit_inflow(FlowTable::Slot slot, unsigned dir, SampleKind kind,
                                   Timestamp departed, Timestamp rx_time, std::uint32_t rss_hash,
                                   std::uint16_t queue_id, std::vector<LatencySample>& out) {
  TsFlowState& st = table_.ts_state(slot);
  if (inflow_.min_interval.ns > 0 && st.last_emit_ns[dir] != kTsNever &&
      rx_time.ns - st.last_emit_ns[dir] < inflow_.min_interval.ns) {
    ++inflow_stats_.rate_limited;
    return;
  }
  st.last_emit_ns[dir] = rx_time.ns;

  const FlowData& d = table_.data(slot);
  const FiveTuple& canonical = table_.canonical(slot);
  const FiveTuple client_oriented = d.syn_forward ? canonical : canonical.reversed();
  LatencySample sample;
  sample.client = client_oriented.src;
  sample.server = client_oriented.dst;
  sample.client_port = client_oriented.src_port;
  sample.server_port = client_oriented.dst_port;
  sample.kind = kind;
  // The sender of the matching packet is the endpoint the measured half
  // reaches: canonical-direction sender is the client iff the SYN
  // travelled canonically.
  sample.toward_client = (dir == 0) == d.syn_forward;
  // Carry the measured interval in the matching half so external() /
  // internal() / total() keep their meaning: internal (SYN-ACK -> ACK)
  // is the tap<->client half, external (SYN -> SYN-ACK) tap<->server.
  if (sample.toward_client) {
    sample.syn_time = departed;
    sample.synack_time = departed;
    sample.ack_time = rx_time;
  } else {
    sample.syn_time = departed;
    sample.synack_time = rx_time;
    sample.ack_time = rx_time;
  }
  sample.rss_hash = rss_hash;
  sample.queue_id = queue_id;
  if (kind == SampleKind::kInflow) {
    ++inflow_stats_.inflow_samples;
  } else {
    ++inflow_stats_.one_sided_samples;
  }
  out.push_back(sample);
}

void HandshakeTracker::process_burst(std::span<const TrackedPacket> pkts, std::uint16_t queue_id,
                                     std::vector<LatencySample>& out) {
  const std::size_t n = pkts.size();
  if (n != 0) table_.prefetch(pkts[0].rss_hash);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) table_.prefetch(pkts[i + 1].rss_hash);
    process(pkts[i].view, pkts[i].rx_time, pkts[i].rss_hash, queue_id, out);
  }
}

}  // namespace ruru
