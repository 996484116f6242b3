// Flow-table probe benchmarks: the group-probed Swiss-style table (on
// the build's probe kernel) against a faithful copy of the linear-probe
// table it replaced.  Mixes: resident hits, clean misses, a collision-
// heavy high-load mix (the acceptance gate), and a Zipf-churned workload
// shaped like production flow popularity.  The tracker benches compare
// per-packet process() with the batched, prefetch-pipelined
// process_burst().

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "flow/flow_table.hpp"
#include "flow/handshake_tracker.hpp"
#include "net/packet_builder.hpp"
#include "util/random.hpp"

namespace {

using namespace ruru;

// --- the replaced baseline, copied verbatim (minus unused stats) -------
//
// Linear probing over an array of wide entries: every probed slot loads
// a full ~96-byte record to test occupancy and compare the hash/key.

struct LinearEntry {
  FiveTuple canonical;
  Timestamp last_seen;
  std::uint32_t rss_hash = 0;
  bool occupied = false;
};

class LinearFlowTable {
 public:
  static constexpr std::size_t kProbeWindow = 32;

  explicit LinearFlowTable(std::size_t capacity, Duration stale_after)
      : stale_after_(stale_after) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  LinearEntry* find(const FlowKey& key, std::uint32_t rss_hash, Timestamp now) {
    const std::size_t start = slot_for(rss_hash);
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      LinearEntry& e = slots_[(start + i) & mask_];
      if (!e.occupied) continue;
      if (e.rss_hash == rss_hash && e.canonical == key.canonical) {
        if (now - e.last_seen > stale_after_) {
          e.occupied = false;
          continue;
        }
        return &e;
      }
    }
    return nullptr;
  }

  LinearEntry* find_or_insert(const FlowKey& key, std::uint32_t rss_hash, Timestamp now,
                              bool& inserted) {
    inserted = false;
    const std::size_t start = slot_for(rss_hash);
    LinearEntry* free_slot = nullptr;
    LinearEntry* stale_slot = nullptr;
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      LinearEntry& e = slots_[(start + i) & mask_];
      if (!e.occupied) {
        if (free_slot == nullptr) free_slot = &e;
        continue;
      }
      const bool stale = now - e.last_seen > stale_after_;
      if (e.rss_hash == rss_hash && e.canonical == key.canonical) {
        if (!stale) return &e;
        e.occupied = false;
        if (free_slot == nullptr) free_slot = &e;
        continue;
      }
      if (stale && stale_slot == nullptr) stale_slot = &e;
    }
    LinearEntry* slot = free_slot != nullptr ? free_slot : stale_slot;
    if (slot == nullptr) return nullptr;
    *slot = LinearEntry{};
    slot->canonical = key.canonical;
    slot->rss_hash = rss_hash;
    slot->occupied = true;
    slot->last_seen = now;
    inserted = true;
    return slot;
  }

  void erase(LinearEntry* e) {
    if (e != nullptr) e->occupied = false;
  }

 private:
  [[nodiscard]] std::size_t slot_for(std::uint32_t rss_hash) const {
    std::uint64_t h = rss_hash;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & mask_;
  }

  std::vector<LinearEntry> slots_;
  std::size_t mask_ = 0;
  Duration stale_after_;
};

// --- workload generation -----------------------------------------------

constexpr Duration kNeverStale = Duration::from_sec(1e9);

struct Flow {
  FlowKey key;
  std::uint32_t rss = 0;
};

/// `collision_piles` > 0: draw rss from that many distinct values so
/// flows pile into shared probe windows; 0: random rss per flow.
std::vector<Flow> make_flows(std::size_t n, std::uint64_t seed, std::size_t collision_piles) {
  Pcg32 rng(seed);
  std::vector<Flow> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FiveTuple t;
    t.src = Ipv4Address(static_cast<std::uint32_t>(0x0A000000u + i + 1));
    t.dst = Ipv4Address(10, 200, 0, static_cast<std::uint8_t>(i % 251));
    t.src_port = static_cast<std::uint16_t>(1024 + (i % 60'000));
    t.dst_port = 443;
    t.protocol = 6;
    Flow f;
    f.key = FlowKey::from(t);
    f.rss = collision_piles == 0
                ? rng.next_u32()
                : static_cast<std::uint32_t>(rng.bounded(
                      static_cast<std::uint32_t>(collision_piles)) *
                  2654435761u);
    flows.push_back(f);
  }
  return flows;
}

enum class Kind { kGroup, kLinear };

/// Populates `table` with `flows` (window-saturated inserts just fail)
/// and times find() over `probes` (hit and/or miss traffic).
template <typename Table>
void run_lookups(benchmark::State& state, Table& table, const std::vector<Flow>& flows,
                 const std::vector<Flow>& probes) {
  bool inserted = false;
  for (const auto& f : flows) {
    (void)table.find_or_insert(f.key, f.rss, Timestamp::from_sec(1), inserted);
  }
  const Timestamp now = Timestamp::from_sec(2);
  std::size_t i = 0;
  for (auto _ : state) {
    const Flow& p = probes[i];
    benchmark::DoNotOptimize(table.find(p.key, p.rss, now));
    if (++i == probes.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

void lookup_bench(benchmark::State& state, Kind kind, std::size_t capacity,
                  std::size_t n_flows, std::size_t piles, bool probe_misses) {
  auto flows = make_flows(n_flows, 42, piles);
  // Miss traffic: same pile structure, disjoint keys.
  auto strangers = make_flows(n_flows, 4242, piles);
  for (auto& s : strangers) s.key.canonical.dst_port = 8443;

  std::vector<Flow> probes;
  Pcg32 rng(7);
  for (std::size_t i = 0; i < 4096; ++i) {
    const bool miss = probe_misses && rng.chance(0.5);
    const auto& pool = miss ? strangers : flows;
    probes.push_back(pool[rng.bounded(static_cast<std::uint32_t>(pool.size()))]);
  }

  if (kind == Kind::kLinear) {
    LinearFlowTable table(capacity, kNeverStale);
    run_lookups(state, table, flows, probes);
  } else {
    FlowTable table(capacity, kNeverStale);
    run_lookups(state, table, flows, probes);
  }
}

void BM_LookupHit(benchmark::State& state, Kind kind) {
  // 50% load, random hashes, all probes resident.
  lookup_bench(state, kind, 1 << 14, 1 << 13, 0, false);
}
BENCHMARK_CAPTURE(BM_LookupHit, group, Kind::kGroup);
BENCHMARK_CAPTURE(BM_LookupHit, linear, Kind::kLinear);

void BM_LookupMiss(benchmark::State& state, Kind kind) {
  // 50% load, every probe is for an absent flow.
  auto flows = make_flows(1 << 13, 42, 0);
  auto strangers = make_flows(4096, 4242, 0);
  if (kind == Kind::kLinear) {
    LinearFlowTable table(1 << 14, kNeverStale);
    bool inserted = false;
    for (const auto& f : flows) {
      table.find_or_insert(f.key, f.rss, Timestamp::from_sec(1), inserted);
    }
    const Timestamp now = Timestamp::from_sec(2);
    std::size_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(table.find(strangers[i].key, strangers[i].rss, now));
      if (++i == strangers.size()) i = 0;
    }
  } else {
    FlowTable table(1 << 14, kNeverStale);
    bool inserted = false;
    for (const auto& f : flows) {
      table.find_or_insert(f.key, f.rss, Timestamp::from_sec(1), inserted);
    }
    const Timestamp now = Timestamp::from_sec(2);
    std::size_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(table.find(strangers[i].key, strangers[i].rss, now));
      if (++i == strangers.size()) i = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_LookupMiss, group, Kind::kGroup);
BENCHMARK_CAPTURE(BM_LookupMiss, linear, Kind::kLinear);

void BM_CollisionHeavy(benchmark::State& state, Kind kind) {
  // The acceptance mix: 90% load, so probe windows are crowded with
  // colliding residents, and half the probes are for absent flows — the
  // case where the linear baseline walks its whole 32-slot window of
  // wide entries while the group probe is answered by one or two
  // control-byte compares.
  lookup_bench(state, kind, 1 << 13, (1 << 13) * 90 / 100, 0, true);
}
BENCHMARK_CAPTURE(BM_CollisionHeavy, group, Kind::kGroup);
BENCHMARK_CAPTURE(BM_CollisionHeavy, linear, Kind::kLinear);

void BM_SharedRssPile(benchmark::State& state, Kind kind) {
  // Adversarial degenerate case: many flows share the *same* RSS hash
  // (hundreds of piles of identical hashes), so every pile member
  // carries the same control tag and fingerprint filtering cannot
  // discriminate — each probe must verify pile members one by one, just
  // like the linear baseline.  Kept honest here: the group table should
  // roughly tie, not win, on this mix.
  lookup_bench(state, kind, 1 << 13, (1 << 13) * 85 / 100, 400, true);
}
BENCHMARK_CAPTURE(BM_SharedRssPile, group, Kind::kGroup);
BENCHMARK_CAPTURE(BM_SharedRssPile, linear, Kind::kLinear);

void BM_ZipfChurn(benchmark::State& state, Kind kind) {
  // Zipf-popular flows inserted, re-found, and erased — the tracker's
  // real access pattern (a handshake is three touches then an erase).
  constexpr std::size_t kFlows = 1 << 12;
  auto flows = make_flows(kFlows, 42, 0);
  bench::ZipfSampler zipf(kFlows, 1.0);
  Pcg32 rng(13);
  std::vector<std::size_t> order;
  order.reserve(1 << 14);
  for (std::size_t i = 0; i < (1 << 14); ++i) order.push_back(zipf.next(rng));

  std::size_t i = 0;
  bool inserted = false;
  if (kind == Kind::kLinear) {
    LinearFlowTable table(1 << 13, kNeverStale);
    for (auto _ : state) {
      const Flow& f = flows[order[i]];
      LinearEntry* e = table.find_or_insert(f.key, f.rss, Timestamp::from_sec(1), inserted);
      if (e != nullptr && (i & 3) == 0) table.erase(e);
      benchmark::DoNotOptimize(e);
      if (++i == order.size()) i = 0;
    }
  } else {
    FlowTable table(1 << 13, kNeverStale);
    for (auto _ : state) {
      const Flow& f = flows[order[i]];
      const FlowTable::Slot s = table.find_or_insert(f.key, f.rss, Timestamp::from_sec(1), inserted);
      if (s != FlowTable::kNoSlot && (i & 3) == 0) table.erase(s);
      benchmark::DoNotOptimize(s);
      if (++i == order.size()) i = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ZipfChurn, group, Kind::kGroup);
BENCHMARK_CAPTURE(BM_ZipfChurn, linear, Kind::kLinear);

// --- batched handshake tracking ----------------------------------------

std::vector<TrackedPacket> handshake_stream(std::vector<std::vector<std::uint8_t>>& storage,
                                            std::vector<PacketView>& views, std::size_t flows) {
  storage.clear();
  for (std::size_t i = 0; i < flows; ++i) {
    TcpFrameSpec syn;
    syn.src_ip = Ipv4Address(static_cast<std::uint32_t>(0x0A010000u + i + 1));
    syn.dst_ip = Ipv4Address(10, 2, 0, 1);
    syn.src_port = static_cast<std::uint16_t>(1024 + (i % 60'000));
    syn.dst_port = 443;
    syn.seq = static_cast<std::uint32_t>(i * 7 + 1);
    syn.flags = TcpFlags::kSyn;
    storage.push_back(build_tcp_frame(syn));

    TcpFrameSpec synack;
    synack.src_ip = syn.dst_ip;
    synack.dst_ip = syn.src_ip;
    synack.src_port = 443;
    synack.dst_port = syn.src_port;
    synack.seq = static_cast<std::uint32_t>(i * 13 + 5);
    synack.ack = syn.seq + 1;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    storage.push_back(build_tcp_frame(synack));

    TcpFrameSpec ack;
    ack.src_ip = syn.src_ip;
    ack.dst_ip = syn.dst_ip;
    ack.src_port = syn.src_port;
    ack.dst_port = 443;
    ack.seq = syn.seq + 1;
    ack.ack = synack.seq + 1;
    ack.flags = TcpFlags::kAck;
    storage.push_back(build_tcp_frame(ack));
  }
  views.resize(storage.size());
  std::vector<TrackedPacket> pkts;
  pkts.reserve(storage.size());
  for (std::size_t i = 0; i < storage.size(); ++i) {
    if (parse_packet(storage[i], views[i]) != ParseStatus::kOk) std::abort();
    const auto rss = static_cast<std::uint32_t>(FlowKey::from(views[i].tuple()).hash());
    pkts.push_back({views[i], Timestamp::from_ms(static_cast<std::int64_t>(i)), rss});
  }
  return pkts;
}

void BM_TrackerPerPacket(benchmark::State& state) {
  std::vector<std::vector<std::uint8_t>> storage;
  std::vector<PacketView> views;
  const auto pkts = handshake_stream(storage, views, 2048);
  HandshakeTracker tracker(1 << 14);
  std::uint64_t samples = 0;
  for (auto _ : state) {
    for (const auto& p : pkts) {
      if (tracker.process(p.view, p.rx_time, p.rss_hash, 0)) ++samples;
    }
  }
  benchmark::DoNotOptimize(samples);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pkts.size()));
}
BENCHMARK(BM_TrackerPerPacket);

void BM_TrackerProcessBurst(benchmark::State& state) {
  std::vector<std::vector<std::uint8_t>> storage;
  std::vector<PacketView> views;
  const auto pkts = handshake_stream(storage, views, 2048);
  HandshakeTracker tracker(1 << 14);
  std::vector<LatencySample> out;
  out.reserve(pkts.size());
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    out.clear();
    for (std::size_t i = 0; i < pkts.size(); i += burst) {
      const std::size_t n = std::min(burst, pkts.size() - i);
      tracker.process_burst(std::span<const TrackedPacket>(pkts.data() + i, n), 0, out);
    }
  }
  benchmark::DoNotOptimize(out.data());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pkts.size()));
}
BENCHMARK(BM_TrackerProcessBurst)->Arg(32)->Arg(64)->ArgName("burst");

}  // namespace

BENCHMARK_MAIN();
