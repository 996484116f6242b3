// E9 / §2 — the ZeroMQ role: zero-copy pub/sub between pipeline stages.
//
// Reports in-proc publish throughput vs payload size and subscriber
// count, the HWM drop behaviour under an absent consumer (the publisher
// must never block), and loopback TCP transport throughput.

#include <benchmark/benchmark.h>

#include <thread>

#include "msg/codec.hpp"
#include "msg/pubsub.hpp"
#include "msg/tcp_transport.hpp"

namespace {

using namespace ruru;

Message make_message(std::size_t payload_size) {
  Message m("ruru.latency");
  m.add(Frame::adopt(std::vector<std::uint8_t>(payload_size, 0xAB)));
  return m;
}

// Publish with one active consumer thread draining.
void BM_InprocPubSub(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  PubSocket pub;
  auto sub = pub.subscribe("", 1 << 14);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> received{0};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (sub->try_recv()) received.fetch_add(1, std::memory_order_relaxed);
    }
    while (sub->try_recv()) received.fetch_add(1, std::memory_order_relaxed);
  });

  const Message msg = make_message(payload);
  for (auto _ : state) {
    pub.publish(msg);  // shares frames; the copy happened once above
  }
  stop.store(true);
  consumer.join();

  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(payload));
  state.counters["delivered"] = static_cast<double>(sub->delivered());
  state.counters["hwm_dropped"] = static_cast<double>(sub->dropped());
}
BENCHMARK(BM_InprocPubSub)->Arg(64)->Arg(512)->Arg(4096)->ArgName("payload");

// Fan-out cost: one publish to N subscribers (each message shared, not
// copied — this measures queue insertion, not memcpy).
void BM_InprocFanout(benchmark::State& state) {
  const auto nsubs = static_cast<std::size_t>(state.range(0));
  PubSocket pub;
  std::vector<std::shared_ptr<Subscription>> subs;
  for (std::size_t i = 0; i < nsubs; ++i) subs.push_back(pub.subscribe("", 1 << 20));
  const Message msg = make_message(68);
  for (auto _ : state) {
    pub.publish(msg);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nsubs));
  // Confirm zero-copy: every queued message shares one buffer.
  state.counters["payload_use_count"] = static_cast<double>(msg.frames[1].use_count());
}
BENCHMARK(BM_InprocFanout)->Arg(1)->Arg(4)->Arg(16)->ArgName("subscribers");

// HWM policy: a stalled consumer must not slow the publisher down.
void BM_HwmDropUnderStall(benchmark::State& state) {
  PubSocket pub;
  auto sub = pub.subscribe("", 1024);  // nobody drains it
  const Message msg = make_message(68);
  for (auto _ : state) {
    pub.publish(msg);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dropped"] = static_cast<double>(sub->dropped());
  state.counters["delivered"] = static_cast<double>(sub->delivered());
}
BENCHMARK(BM_HwmDropUnderStall);

// The latency feed at several batch sizes, measured in samples/sec end
// to end (encode → publish → recv → decode). batch=1 is one message per
// sample; larger batches amortize the Message/Frame allocation, the
// queue insertion, and the consumer wakeup across N samples.
void BM_LatencyFeedPublish(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  PubSocket pub;
  auto sub = pub.subscribe(std::string(kLatencyTopic), 1 << 14);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> decoded_samples{0};
  std::thread consumer([&] {
    std::vector<LatencySample> decoded;
    decoded.reserve(kMaxLatencyBatch);
    const auto drain_one = [&](const Message& m) {
      decoded.clear();
      if (m.frames.size() >= 2 && decode_latency_payload(m.frames[1], decoded)) {
        decoded_samples.fetch_add(decoded.size(), std::memory_order_relaxed);
      }
    };
    while (!stop.load(std::memory_order_acquire)) {
      if (const auto m = sub->try_recv()) drain_one(*m);
    }
    while (const auto m = sub->try_recv()) drain_one(*m);
  });

  std::vector<LatencySample> samples(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    samples[i].client = Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1));
    samples[i].server = Ipv4Address(10, 2, 0, 1);
    samples[i].client_port = static_cast<std::uint16_t>(40'000 + i);
    samples[i].server_port = 443;
    samples[i].syn_time = Timestamp::from_ms(1);
    samples[i].synack_time = Timestamp::from_ms(120);
    samples[i].ack_time = Timestamp::from_ms(125);
  }

  for (auto _ : state) pub.publish(encode_latency_batch(samples), samples.size());
  stop.store(true);
  consumer.join();

  // Items are SAMPLES, so samples/sec is directly comparable across
  // batch sizes.
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
  state.counters["delivered_samples"] = static_cast<double>(sub->delivered());
  state.counters["dropped_samples"] = static_cast<double>(sub->dropped());
  state.counters["decoded_samples"] = static_cast<double>(decoded_samples.load());
}
BENCHMARK(BM_LatencyFeedPublish)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->ArgName("batch")
    ->UseRealTime();

// Loopback TCP transport: serialize + send + receive round.
void BM_TcpTransportLoopback(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  TcpBusServer server;
  if (!server.bind(0).ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  auto client = TcpBusClient::connect("127.0.0.1", server.port());
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  while (server.client_count() < 1) std::this_thread::yield();

  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (client.value().recv()) {
        received.fetch_add(1, std::memory_order_relaxed);
      } else {
        break;
      }
    }
  });

  const Message msg = make_message(payload);
  for (auto _ : state) {
    server.publish(msg);
  }
  done.store(true);
  server.close();  // unblocks the consumer
  consumer.join();

  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(payload));
  state.counters["received"] = static_cast<double>(received.load());
}
BENCHMARK(BM_TcpTransportLoopback)->Arg(68)->Arg(512)->Arg(4096)->ArgName("payload");

}  // namespace

BENCHMARK_MAIN();
