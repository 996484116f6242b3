#include "flow/worker.hpp"

#include <algorithm>

#include "obs/tsc_clock.hpp"

namespace ruru {

QueueWorker::QueueWorker(SimNic& nic, std::uint16_t queue_id, std::size_t flow_table_capacity,
                         SampleSink sink, Duration stale_after, std::size_t probe_window,
                         InflowConfig inflow)
    : nic_(nic),
      queue_id_(queue_id),
      tracker_(flow_table_capacity, stale_after, probe_window, inflow),
      sink_(std::move(sink)) {
  items_.reserve(kBurst);
  // A packet can yield up to two samples with the in-flow kernel on
  // (handshake completion + its echo match): size the staging buffer so
  // the steady state never re-allocates.
  samples_.reserve(2 * kBurst);
  syns_.reserve(kBurst);
}

void QueueWorker::set_syn_sink(SynSink sink) {
  if (!sink) {
    syn_sink_ = nullptr;
    return;
  }
  set_syn_batch_sink([sink = std::move(sink)](std::span<const SynEvent> syns) {
    for (const SynEvent& e : syns) sink(e.time, e.server);
  });
}

void QueueWorker::set_batch_sink(BatchSink sink, std::size_t batch_size, Duration linger) {
  batch_sink_ = std::move(sink);
  batch_size_ = std::clamp<std::size_t>(batch_size, 1, kMaxLatencyBatch);
  batch_linger_ = linger;
  batch_.reserve(batch_size_);
}

void QueueWorker::flush_syns() {
  if (syns_.empty()) return;
  syn_sink_(std::span<const SynEvent>(syns_.data(), syns_.size()));
  syns_.clear();
}

void QueueWorker::flush_batch() {
  if (!batch_sink_ || batch_.empty()) return;
  // The burst's SYNs so far go first: a completion in this batch must not
  // reach the hook ahead of the SYNs that preceded it on the wire.
  flush_syns();
  batch_sink_(std::span<const LatencySample>(batch_.data(), batch_.size()));
  ++stats_.batch_flushes;
  stats_.batched_samples += batch_.size();
  obs_.batch_fill.record(static_cast<std::int64_t>(batch_.size()));
  batch_.clear();  // keeps capacity: the accumulator never re-allocates
}

void QueueWorker::deliver_sample(const LatencySample& sample) {
  // sample.ack_time is the capture timestamp of the completing packet,
  // so batch-full and linger triggers fire exactly as they did when the
  // sample was delivered inside the per-packet loop.
  if (batch_sink_) {
    if (batch_.empty()) batch_oldest_ = sample.ack_time;
    batch_.push_back(sample);
    if (batch_.size() >= batch_size_ ||
        (batch_linger_.ns > 0 && sample.ack_time - batch_oldest_ >= batch_linger_)) {
      flush_batch();
    }
  }
  if (sink_) sink_(sample);
}

void QueueWorker::stage_item(const PacketView& view, const Mbuf& m) {
  if (syn_sink_ && view.tcp.is_syn_only() && view.is_v4) {
    syns_.push_back(SynEvent{m.timestamp, view.ip4.dst});
  }
  items_.push_back(TrackedPacket{view, m.timestamp, m.rss_hash});
}

void QueueWorker::finish_burst(std::span<MbufPtr> burst) {
  flush_syns();
  // Retire abandoned handshakes a few groups at a time, so probes never
  // pay a staleness scan and the table never needs a stop-the-world GC.
  tracker_.sweep(burst.back()->timestamp, kSweepGroupsPerBurst);
  // The burst goes back to the NIC's recycle ring, so nothing may keep
  // pointing into it; items_ is already empty.
  std::fill_n(desc_.frame.begin(), burst.size(), std::span<const std::uint8_t>{});
  nic_.recycle(queue_id_, burst);
}

void QueueWorker::flush_items() {
  if (items_.empty()) return;
  samples_.clear();  // keeps capacity
  tracker_.process_burst(items_, queue_id_, samples_);
  items_.clear();
  deliver_staged();
}

void QueueWorker::deliver_staged() {
  const bool tracing = trace_.attached();
  for (LatencySample& s : samples_) {
    if (tracing) {
      // Re-derive rather than thread the id through the tracker: the
      // sampler is a pure function of the RSS hash, so the tracker and
      // the sample's wire format stay untouched.
      s.trace_id = obs::trace_id_for(s.rss_hash, trace_sample_n_);
      if (s.trace_id != 0) {
        trace_.instant(obs::TraceStage::kFlow, s.trace_id, obs::trace_now_ns(), 0,
                       queue_id_);
      }
    }
    if (s.kind == SampleKind::kInflow) {
      obs_.inflow_rtt.record(s.total().ns);
    } else if (s.kind == SampleKind::kOneSided) {
      // A departure delta is sender pacing, not a round trip: its own
      // histogram keeps flow.inflow_rtt_ns unimodal on asymmetric taps.
      obs_.one_sided_delta.record(s.total().ns);
    }
    deliver_sample(s);
  }
}

std::size_t QueueWorker::poll_once() {
  return loop_kernel_ == LoopKernel::kScalar ? poll_once_scalar() : poll_once_vector();
}

std::size_t QueueWorker::poll_once_scalar() {
  std::array<MbufPtr, kBurst> burst;
  const std::size_t n = nic_.rx_burst(queue_id_, burst);
  ++stats_.polls;
  if (n == 0) {
    ++stats_.empty_polls;
    flush_batch();  // end-of-burst idle: don't sit on a partial batch
    return 0;
  }
  obs_.poll_batch.record(static_cast<std::int64_t>(n));

  // Flight recorder: `tracing` is loop-invariant and false on the
  // untraced path, so the per-packet cost there is one predicted
  // branch on a register value.
  const bool tracing = trace_.attached();
  std::int64_t poll_start_ns = 0;
  if (tracing) poll_start_ns = obs::trace_now_ns();

  // Pass 1: classify every mbuf and warm the flow-table group each one
  // will probe.  Slow-path packets are parsed here (parsing reads only
  // the frame, never the table, so order does not matter yet).
  for (std::size_t i = 0; i < n; ++i) {
    // Hide a later mbuf's descriptor + header-bytes miss behind the
    // current packet's classification (the classic rx-loop prefetch).
    if (prefetch_depth_ != 0 && i + prefetch_depth_ < n) {
      const Mbuf* next = burst[i + prefetch_depth_].get();
      __builtin_prefetch(next, 0 /*read*/, 3);
      __builtin_prefetch(next->data(), 0 /*read*/, 3);
    }
    const Mbuf& m = *burst[i];
    ++stats_.packets;
    stats_.bytes += m.length();
    if (tracing && m.trace_id != 0) {
      // The nic span is synthesized here from the ingest stamp: it
      // covers NIC queueing, i.e. inject -> worker pickup.
      const std::int64_t now_ns = obs::trace_now_ns();
      trace_.span(obs::TraceStage::kNic, m.trace_id, m.ingest_ns, now_ns - m.ingest_ns,
                  static_cast<std::uint32_t>(m.length()), queue_id_);
    }

    Pending& p = pending_[i];
    p.mbuf = static_cast<std::uint32_t>(i);
    if (fast_path_) {
      // Pre-parse probe: a pure data segment (ACK, no SYN/FIN/RST) of a
      // flow the tracker is not following can contribute nothing — no
      // timestamp, no state transition — so it is a skip *candidate*.
      // The skip decision itself waits for pass 2: the handshake it
      // might belong to could complete earlier in this very burst.
      const FastProbe probe = probe_tcp_fast(m.bytes());
      constexpr std::uint8_t kSlowFlags = TcpFlags::kSyn | TcpFlags::kFin | TcpFlags::kRst;
      if (probe.eligible && (probe.tcp_flags & kSlowFlags) == 0 &&
          (probe.tcp_flags & TcpFlags::kAck) != 0) {
        p.kind = Pending::Kind::kCandidate;
        p.key = FlowKey::from(probe.tuple);
        p.l4_offset = probe.l4_offset;
        p.probe_v4 = probe.is_v4;
        tracker_.prefetch(m.rss_hash);
        continue;
      }
    }
    p.kind = Pending::Kind::kParsed;
    p.status = parse_packet(m.bytes(), p.view);
    ++stats_.parse_status[static_cast<std::size_t>(p.status)];
    if (p.status == ParseStatus::kOk) tracker_.prefetch(m.rss_hash);
  }

  // Pass 2: resolve in arrival order.  Accumulated parsed packets are
  // run through the tracker in batches; before each fast-path candidate
  // is judged, the batch is flushed so the lookup sees current state.
  for (std::size_t i = 0; i < n; ++i) {
    Pending& p = pending_[i];
    const Mbuf& m = *burst[p.mbuf];
    if (tracing && m.trace_id != 0) {
      trace_.instant(obs::TraceStage::kWorker, m.trace_id, obs::trace_now_ns(),
                     static_cast<std::uint32_t>(i), queue_id_);
    }
    if (p.kind == Pending::Kind::kCandidate) {
      flush_items();
      // One table probe classifies the candidate.  Established flows
      // (in-flow kernel on) run the timestamp match right here — option
      // extraction happens behind the ring prefetch the lookup issued —
      // and never reach parse_packet().
      const auto look = tracker_.inflow_lookup(p.key, m.rss_hash, m.timestamp);
      if (look.verdict == HandshakeTracker::InflowVerdict::kUntracked) {
        ++stats_.fast_path_skips;
        continue;
      }
      if (look.verdict == HandshakeTracker::InflowVerdict::kEstablished) {
        const FastTsProbe tsp = probe_tcp_timestamps(m.bytes(), p.l4_offset, p.probe_v4);
        if (tsp.valid) [[likely]] {
          samples_.clear();
          tracker_.inflow_established(look.slot, p.key.forward, tsp, m.timestamp, m.rss_hash,
                                      queue_id_, samples_);
          deliver_staged();
          ++stats_.inflow_consumed;
          continue;
        }
        // Inconsistent length fields: let parse_packet() classify it.
      }
      // Tracked flow after all: take the full parse like the slow path.
      p.status = parse_packet(m.bytes(), p.view);
      ++stats_.parse_status[static_cast<std::size_t>(p.status)];
    }
    if (p.status != ParseStatus::kOk) continue;
    stage_item(p.view, m);
  }
  flush_items();
  finish_burst({burst.data(), n});

  if (tracing) {
    const std::int64_t now_ns = obs::trace_now_ns();
    trace_.span(obs::TraceStage::kWorker, 0, poll_start_ns, now_ns - poll_start_ns,
                static_cast<std::uint32_t>(n), queue_id_);
  }
  return n;
}

std::size_t QueueWorker::poll_once_vector() {
  std::array<MbufPtr, kBurst> burst;
  const std::size_t n = nic_.rx_burst(queue_id_, burst);
  ++stats_.polls;
  if (n == 0) {
    ++stats_.empty_polls;
    flush_batch();  // end-of-burst idle: don't sit on a partial batch
    return 0;
  }
  obs_.poll_batch.record(static_cast<std::int64_t>(n));

  const bool tracing = trace_.attached();
  std::int64_t poll_start_ns = 0;
  if (tracing) poll_start_ns = obs::trace_now_ns();

  // Stage 0: every mbuf header prefetches up front.  By the time the
  // ingest loop reads lane i's descriptor the line is in flight or
  // arrived — the staged shape gives the whole burst as lookahead where
  // the per-packet loop only had `prefetch_depth_` lanes of it.
  if (prefetch_depth_ != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      __builtin_prefetch(burst[i].get(), 0 /*read*/, 3);
    }
  }

  // Stage 1: ingest.  Fill the frame / rss / timestamp lanes; packet
  // and byte accounting and the NIC-queueing trace span live here so
  // they stay in arrival order.  Reading the header exposes the frame
  // pointer, so each lane's payload head prefetches here — a full stage
  // ahead of the pre-parse that reads it.
  for (std::size_t i = 0; i < n; ++i) {
    const Mbuf& m = *burst[i];
    if (prefetch_depth_ != 0) {
      __builtin_prefetch(m.data(), 0 /*read*/, 3);
      __builtin_prefetch(m.data() + 64, 0 /*read*/, 3);
    }
    ++stats_.packets;
    stats_.bytes += m.length();
    if (tracing && m.trace_id != 0) {
      const std::int64_t now_ns = obs::trace_now_ns();
      trace_.span(obs::TraceStage::kNic, m.trace_id, m.ingest_ns, now_ns - m.ingest_ns,
                  static_cast<std::uint32_t>(m.length()), queue_id_);
    }
    desc_.frame[i] = m.bytes();
    desc_.rss[i] = m.rss_hash;
    desc_.ts_ns[i] = m.timestamp.ns;
  }

  // Stage 2: batched pre-parse, then the branchless classify.  The
  // candidate predicate — eligible && (flags & (SYN|FIN|RST|ACK)) == ACK
  // — resolves 16 lanes per masked byte-compare; ineligible lanes and
  // tail padding carry 0xFF, which can never satisfy it.  Full-parse
  // lanes are parsed right here (parsing reads only the frame, never the
  // table, so order does not matter yet), same as the scalar pass 1.
  std::size_t n_cand = 0;
  if (fast_path_) {
    probe_tcp_fast_batch(desc_.frame.data(), n, desc_.probe.data());
    for (std::size_t i = 0; i < n; ++i) {
      desc_.flags[i] = desc_.probe[i].eligible ? desc_.probe[i].tcp_flags : 0xFFu;
    }
    for (std::size_t i = n; i < BurstDesc::kLanes; ++i) desc_.flags[i] = 0xFFu;
    constexpr std::uint8_t kClassMask =
        TcpFlags::kSyn | TcpFlags::kFin | TcpFlags::kRst | TcpFlags::kAck;
    std::uint64_t cand_mask = 0;
    for (std::size_t g = 0; g < BurstDesc::kLanes; g += kFlowGroupWidth) {
      cand_mask |= static_cast<std::uint64_t>(
                       group_masked_eq(desc_.flags.data() + g, kClassMask, TcpFlags::kAck))
                   << g;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const bool cand = (cand_mask >> i) & 1u;
      desc_.cls[i] = cand ? BurstDesc::kCandidate : BurstDesc::kFullParse;
      if (cand) {
        const FastProbe& pr = desc_.probe[i];
        desc_.key[i] = FlowKey::from(pr.tuple);
        desc_.l4_offset[i] = pr.l4_offset;
        desc_.v4[i] = pr.is_v4 ? 1 : 0;
        desc_.cand_idx[n_cand++] = static_cast<std::uint32_t>(i);
      } else {
        Pending& p = pending_[i];
        p.status = parse_packet(desc_.frame[i], p.view);
        ++stats_.parse_status[static_cast<std::size_t>(p.status)];
        if (p.status == ParseStatus::kOk) tracker_.prefetch(desc_.rss[i]);
      }
    }
    obs_.burst_candidates.record(static_cast<std::int64_t>(n_cand));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      desc_.cls[i] = BurstDesc::kFullParse;
      Pending& p = pending_[i];
      p.status = parse_packet(desc_.frame[i], p.view);
      ++stats_.parse_status[static_cast<std::size_t>(p.status)];
      if (p.status == ParseStatus::kOk) tracker_.prefetch(desc_.rss[i]);
    }
  }

  // Stage 3: batched provisional flow-table probe over the candidate
  // lanes — all group prefetches issue before any probe resolves.
  if (n_cand != 0) {
    tracker_.inflow_lookup_batch(desc_.cand_idx.data(), n_cand, desc_.key.data(),
                                 desc_.rss.data(), desc_.ts_ns.data(), desc_.verdict.data());
  }

  // Stage 4: resolve in arrival order, one *run* of same-class lanes at
  // a time.  The flush-before-skip-decision rule holds at lane
  // granularity: any candidate lane with staged items flushes before its
  // verdict is consumed, so an intra-burst handshake completion is
  // visible to the very next data segment of that flow.  After any
  // flush (inserts/erases) or an in-reprobe reclamation, the remaining
  // provisional verdicts are void: those lanes take the mutating lookup
  // (`revalidate`), keeping state and stats bit-identical to the scalar
  // loop.
  bool revalidate = false;
  std::size_t i = 0;
  while (i < n) {
    if (desc_.cls[i] == BurstDesc::kFullParse) {
      for (; i < n && desc_.cls[i] == BurstDesc::kFullParse; ++i) {
        const Mbuf& m = *burst[i];
        if (tracing && m.trace_id != 0) {
          trace_.instant(obs::TraceStage::kWorker, m.trace_id, obs::trace_now_ns(),
                         static_cast<std::uint32_t>(i), queue_id_);
        }
        const Pending& p = pending_[i];
        if (p.status != ParseStatus::kOk) continue;
        stage_item(p.view, m);
      }
      continue;
    }

    const std::size_t run_start = i;
    // In-flow kernel samples accumulate across the run in samples_ and
    // deliver at the run boundary (or before a mid-run flush) — the
    // per-sample order matches the scalar loop exactly.
    samples_.clear();
    for (; i < n && desc_.cls[i] == BurstDesc::kCandidate; ++i) {
      const Mbuf& m = *burst[i];
      if (tracing && m.trace_id != 0) {
        trace_.instant(obs::TraceStage::kWorker, m.trace_id, obs::trace_now_ns(),
                       static_cast<std::uint32_t>(i), queue_id_);
      }
      if (!items_.empty()) {
        // A lane of this run staged a full parse: deliver the kernel
        // samples staged so far, then flush — the tracker may complete
        // a handshake whose data segment is the very next lane.
        deliver_staged();
        samples_.clear();
        flush_items();
        samples_.clear();
        revalidate = true;
      }
      HandshakeTracker::InflowLookup look;
      if (revalidate) {
        look = tracker_.inflow_lookup(desc_.key[i], m.rss_hash, m.timestamp);
        ++stats_.lane_revalidated;
      } else {
        bool reprobed = false;
        look = tracker_.inflow_resolve(desc_.verdict[i], desc_.key[i], m.rss_hash, m.timestamp,
                                       reprobed);
        if (desc_.verdict[i].stale_seen) ++stats_.classify_reprobes;
        if (reprobed) revalidate = true;
      }
      if (look.verdict == HandshakeTracker::InflowVerdict::kUntracked) {
        ++stats_.fast_path_skips;
        ++stats_.lane_skip;
        continue;
      }
      if (look.verdict == HandshakeTracker::InflowVerdict::kEstablished) {
        const FastTsProbe tsp =
            probe_tcp_timestamps(desc_.frame[i], desc_.l4_offset[i], desc_.v4[i] != 0);
        if (tsp.valid) [[likely]] {
          tracker_.inflow_established(look.slot, desc_.key[i].forward, tsp, m.timestamp,
                                      m.rss_hash, queue_id_, samples_);
          ++stats_.inflow_consumed;
          ++stats_.lane_established;
          continue;
        }
        // Inconsistent length fields: let parse_packet() classify it.
      }
      ++stats_.lane_need_parse;
      Pending& p = pending_[i];
      p.status = parse_packet(desc_.frame[i], p.view);
      ++stats_.parse_status[static_cast<std::size_t>(p.status)];
      if (p.status != ParseStatus::kOk) continue;
      stage_item(p.view, m);
    }
    deliver_staged();
    samples_.clear();
    obs_.candidate_run_len.record(static_cast<std::int64_t>(i - run_start));
  }
  flush_items();
  finish_burst({burst.data(), n});

  if (tracing) {
    const std::int64_t now_ns = obs::trace_now_ns();
    trace_.span(obs::TraceStage::kWorker, 0, poll_start_ns, now_ns - poll_start_ns,
                static_cast<std::uint32_t>(n), queue_id_);
  }
  return n;
}

void QueueWorker::run(const std::atomic<bool>& stop) {
  std::size_t budget = kSpinPollsPerFrame;  // from the last non-empty burst
  std::size_t idle = 0;                     // empty polls since then
  while (!stop.load(std::memory_order_acquire)) {
    const std::size_t n = poll_once();
    if (n != 0) {
      budget = std::min(n * kSpinPollsPerFrame, kMaxSpinPolls);
      idle = 0;
    } else if (++idle >= budget &&
               nic_.wait_rx(queue_id_, kParkTimeout) != ParkResult::kReady) {
      // `idle` stays past the budget: after a park that timed out, the
      // next empty poll parks again at once.
      ++stats_.parks;
    }
  }
  // Final drain so no injected frame is lost at shutdown.  The drain's
  // terminating empty poll flushed the batch accumulator (flush_batch is
  // part of the empty-poll path), so flushing again here would hand the
  // sink a second, empty flush for nothing — shutdown emits each staged
  // sample exactly once.
  while (poll_once() != 0) {
  }
}

}  // namespace ruru
