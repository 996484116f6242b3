// E6 / §2 analytics — multi-threaded geo/AS enrichment with IP removal.
//
// Sweeps worker thread count over a fixed batch of bus messages and
// reports enrichment throughput (samples/sec), LRU cache hit rate and
// the unlocated fraction.  Expected shape: throughput scales with
// threads up to the host's core count; cache hit rate is high because
// traffic is endpoint-skewed.

#include <benchmark/benchmark.h>

#include "analytics/pool.hpp"
#include "bench_util.hpp"
#include "util/random.hpp"

namespace {

using namespace ruru;

std::vector<Message> make_batch(std::size_t count, std::uint32_t host_spread) {
  Pcg32 rng(0xE6);
  std::vector<Message> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    LatencySample s;
    // Clients from the NZ blocks, servers worldwide; spread controls
    // cache friendliness.
    s.client = Ipv4Address(Ipv4Address(10, 1, 0, 0).value() + rng.bounded(host_spread));
    s.server = Ipv4Address(Ipv4Address(10, 2, 0, 0).value() + rng.bounded(host_spread * 4));
    s.client_port = static_cast<std::uint16_t>(rng.next_u32());
    s.server_port = 443;
    s.syn_time = Timestamp::from_ms(static_cast<std::int64_t>(i));
    s.synack_time = s.syn_time + Duration::from_ms(128);
    s.ack_time = s.synack_time + Duration::from_ms(5);
    batch.push_back(encode_latency_batch({&s, 1}));
  }
  return batch;
}

void BM_EnrichmentVsThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static const World world = ruru::bench::scenario_world();
  const auto batch = make_batch(50'000, 200);

  std::uint64_t processed = 0;
  double hit_rate = 0;
  for (auto _ : state) {
    PubSocket bus;
    auto sub = bus.subscribe("", batch.size() + 16);
    EnrichmentPool pool(sub, world.geo, world.as, threads);
    std::atomic<std::uint64_t> sunk{0};
    pool.add_sink([&sunk](const EnrichedSample&) { sunk.fetch_add(1, std::memory_order_relaxed); });
    pool.start();
    for (const auto& m : batch) bus.publish(m);
    bus.close_all();
    pool.stop();
    processed += pool.processed();
    const auto stats = pool.combined_stats();
    hit_rate = stats.cache_hits + stats.cache_misses != 0
                   ? static_cast<double>(stats.cache_hits) /
                         static_cast<double>(stats.cache_hits + stats.cache_misses)
                   : 0;
    if (sunk.load() != batch.size()) state.SkipWithError("lost samples");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["cache_hit_rate"] = hit_rate;
}
BENCHMARK(BM_EnrichmentVsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Single-threaded enricher cost by cache friendliness (host spread).
void BM_EnrichLookupCost(benchmark::State& state) {
  static const World world = ruru::bench::scenario_world();
  const auto spread = static_cast<std::uint32_t>(state.range(0));
  Enricher enricher(world.geo, world.as);
  Pcg32 rng(1);
  LatencySample s;
  s.syn_time = Timestamp::from_ms(0);
  s.synack_time = Timestamp::from_ms(128);
  s.ack_time = Timestamp::from_ms(133);
  for (auto _ : state) {
    s.client = Ipv4Address(Ipv4Address(10, 1, 0, 0).value() + rng.bounded(spread));
    s.server = Ipv4Address(Ipv4Address(10, 2, 0, 0).value() + rng.bounded(spread));
    const EnrichedSample out = enricher.enrich(s);
    benchmark::DoNotOptimize(out.total);
  }
  state.SetItemsProcessed(state.iterations());
  const auto& st = enricher.stats();
  state.counters["hit_rate"] =
      st.cache_hits + st.cache_misses != 0
          ? static_cast<double>(st.cache_hits) / static_cast<double>(st.cache_hits + st.cache_misses)
          : 0;
}
BENCHMARK(BM_EnrichLookupCost)->Arg(16)->Arg(256)->Arg(1280)->ArgName("host_spread");

// --- cache-regime scenarios (hot / cold / Zipf) -----------------------
//
// Address sequences are pregenerated so the timed loop measures the
// enricher alone.  The world is the 220-city large world: 220 blocks of
// 4096 addresses starting at 100.0.0.0, ~900k addressable hosts — far
// beyond the enricher's cache, so "cold" really misses.

constexpr std::size_t kSeqLen = 1 << 16;

World& large_world() {
  static World world = [] {
    auto w = build_world(large_world_sites(220));
    if (!w.ok()) std::abort();
    return std::move(w).value();
  }();
  return world;
}

enum class AddrMix { kHot, kCold, kZipf };

std::vector<LatencySample> make_scenario_samples(AddrMix mix) {
  constexpr std::uint32_t kBase = 100u << 24;
  constexpr std::uint32_t kSpan = 220u * 4096u;
  Pcg32 rng(0xE6E6);
  std::vector<LatencySample> seq;
  seq.reserve(kSeqLen);
  // Rank -> address scatter: consecutive Zipf ranks land in different
  // city blocks (golden-ratio stride), like real popular hosts do.
  const ruru::bench::ZipfSampler zipf(1 << 18, 1.0);
  for (std::size_t i = 0; i < kSeqLen; ++i) {
    std::uint32_t client = 0;
    std::uint32_t server = 0;
    switch (mix) {
      case AddrMix::kHot:
        client = kBase + 7;
        server = kBase + 4096 + 9;
        break;
      case AddrMix::kCold:
        client = kBase + rng.bounded(kSpan);
        server = kBase + rng.bounded(kSpan);
        break;
      case AddrMix::kZipf:
        client = kBase + static_cast<std::uint32_t>(
                             (zipf.next(rng) * 2654435761ULL) % kSpan);
        server = kBase + static_cast<std::uint32_t>(
                             (zipf.next(rng) * 2654435761ULL) % kSpan);
        break;
    }
    LatencySample s;
    s.client = Ipv4Address(client);
    s.server = Ipv4Address(server);
    s.client_port = static_cast<std::uint16_t>(rng.next_u32());
    s.server_port = 443;
    s.syn_time = Timestamp::from_ms(static_cast<std::int64_t>(i));
    s.synack_time = s.syn_time + Duration::from_ms(128);
    s.ack_time = s.synack_time + Duration::from_ms(5);
    seq.push_back(s);
  }
  return seq;
}

void run_single_enrich(benchmark::State& state, AddrMix mix) {
  const World& world = large_world();
  const auto seq = make_scenario_samples(mix);
  Enricher enricher(world.geo, world.as);
  std::size_t i = 0;
  for (auto _ : state) {
    const EnrichedSample out = enricher.enrich(seq[i]);
    benchmark::DoNotOptimize(out.total);
    i = (i + 1) & (kSeqLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
  const auto& st = enricher.stats();
  state.counters["hit_rate"] =
      st.cache_hits + st.cache_misses != 0
          ? static_cast<double>(st.cache_hits) /
                static_cast<double>(st.cache_hits + st.cache_misses)
          : 0;
}

void BM_EnrichHotCache(benchmark::State& state) { run_single_enrich(state, AddrMix::kHot); }
void BM_EnrichColdCache(benchmark::State& state) { run_single_enrich(state, AddrMix::kCold); }
void BM_EnrichZipfMix(benchmark::State& state) { run_single_enrich(state, AddrMix::kZipf); }
BENCHMARK(BM_EnrichHotCache);
BENCHMARK(BM_EnrichColdCache);
BENCHMARK(BM_EnrichZipfMix);

// Same scenarios through enrich_batch(): adds the lookahead prefetch of
// cache sets and radix buckets, in kMaxLatencyBatch-sized chunks like
// the worker loop.
void run_batch_enrich(benchmark::State& state, AddrMix mix) {
  const World& world = large_world();
  const auto seq = make_scenario_samples(mix);
  Enricher enricher(world.geo, world.as);
  std::vector<EnrichedSample> out;
  out.reserve(kMaxLatencyBatch);
  std::size_t pos = 0;
  std::uint64_t samples = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kMaxLatencyBatch, kSeqLen - pos);
    out.clear();
    enricher.enrich_batch(std::span(seq).subspan(pos, n), out);
    benchmark::DoNotOptimize(out.data());
    samples += n;
    pos = (pos + n) & (kSeqLen - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
  const auto& st = enricher.stats();
  state.counters["hit_rate"] =
      st.cache_hits + st.cache_misses != 0
          ? static_cast<double>(st.cache_hits) /
                static_cast<double>(st.cache_hits + st.cache_misses)
          : 0;
}

void BM_EnrichBatchHotCache(benchmark::State& state) { run_batch_enrich(state, AddrMix::kHot); }
void BM_EnrichBatchColdCache(benchmark::State& state) { run_batch_enrich(state, AddrMix::kCold); }
void BM_EnrichBatchZipfMix(benchmark::State& state) { run_batch_enrich(state, AddrMix::kZipf); }
BENCHMARK(BM_EnrichBatchHotCache);
BENCHMARK(BM_EnrichBatchColdCache);
BENCHMARK(BM_EnrichBatchZipfMix);

}  // namespace

BENCHMARK_MAIN();
