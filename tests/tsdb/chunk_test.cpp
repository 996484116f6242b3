// Gorilla chunk codec: the engine's correctness rests on every
// (timestamp, value) pair decoding bit-identically, because the query
// layer promises oracle parity with the uncompressed store.  These
// tests pin that down with deterministic fuzz against the trivial
// "remember what I appended" oracle: random walks, NaN/inf/-0.0 bit
// patterns, equal-timestamp runs, out-of-order timestamps, decoding a
// snapshot taken mid-write, and seal/reopen boundaries.

#include "tsdb/chunk.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/random.hpp"

namespace ruru {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct Point {
  std::int64_t ts;
  double value;
};

/// Appends every point, seals, and asserts the decoded stream is
/// bit-identical (NaN payloads included) to what went in.
void expect_roundtrip(const std::vector<Point>& points) {
  ChunkWriter w;
  for (const Point& p : points) w.append(Timestamp::from_ns(p.ts), p.value);
  ASSERT_EQ(w.count(), points.size());
  const auto sealed = w.seal();
  ASSERT_NE(sealed, nullptr);
  EXPECT_EQ(sealed->count, points.size());

  ChunkCursor cursor(*sealed);
  Timestamp ts;
  double value;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(cursor.next(ts, value)) << "point " << i;
    EXPECT_EQ(ts.ns, points[i].ts) << "point " << i;
    EXPECT_EQ(bits_of(value), bits_of(points[i].value)) << "point " << i;
  }
  EXPECT_FALSE(cursor.next(ts, value));
}

TEST(BitStream, RoundTripsMixedWidths) {
  BitWriter w;
  w.put(0b1, 1);
  w.put(0b1010, 4);
  w.put(0x3FFF, 14);
  w.put(0xDEADBEEFCAFEF00DULL, 64);
  w.put(0, 7);
  w.put(0x1FF, 9);

  BitReader r(w.bytes().data(), w.size_bytes());
  EXPECT_EQ(r.get(1), 0b1u);
  EXPECT_EQ(r.get(4), 0b1010u);
  EXPECT_EQ(r.get(14), 0x3FFFu);
  EXPECT_EQ(r.get(64), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(r.get(7), 0u);
  EXPECT_EQ(r.get(9), 0x1FFu);
}

TEST(BitStream, ReadPastEndYieldsZeros) {
  BitWriter w;
  w.put(0xFF, 8);
  BitReader r(w.bytes().data(), w.size_bytes());
  EXPECT_EQ(r.get(8), 0xFFu);
  EXPECT_EQ(r.get(64), 0u);  // bounded by out-of-band count in practice
  EXPECT_EQ(r.get(1), 0u);
}

/// The per-byte reader the word reader replaced, kept as the reference
/// the BitStream tests compare against.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len) : data_(data), len_bits_(len * 8) {}

  std::uint64_t get(unsigned n) {
    std::uint64_t out = 0;
    while (n > 0) {
      if (pos_ >= len_bits_) return n < 64 ? out << n : 0;  // past the end: zero-fill
      const unsigned bit_in_byte = static_cast<unsigned>(pos_ & 7);
      const unsigned avail = 8 - bit_in_byte;
      const unsigned take = n < avail ? n : avail;
      const std::uint8_t byte = data_[pos_ >> 3];
      const std::uint64_t chunk =
          (static_cast<std::uint64_t>(byte) >> (avail - take)) & ((1ull << take) - 1);
      out = (take < 64 ? out << take : 0) | chunk;
      pos_ += take;
      n -= take;
    }
    return out;
  }

 private:
  const std::uint8_t* data_;
  std::size_t len_bits_;
  std::size_t pos_ = 0;
};

std::vector<std::uint8_t> random_bytes(Pcg32& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bounded(256));
  return bytes;
}

TEST(BitStream, EveryWidthAtEveryOffsetMatchesPerByteReader) {
  // Every start bit of buffers 0-24 bytes long (each bit offset 0-7 of
  // every byte, and past the end), then every width 0-64: fields that
  // end in the last byte, fields straddling the end (zero-filled), and
  // buffers on both sides of the 8-byte word refill.  The trailing reads
  // check the reader's position after each field.
  Pcg32 rng(0xB175);
  for (std::size_t len = 0; len <= 24; ++len) {
    const std::vector<std::uint8_t> bytes = random_bytes(rng, len);
    for (unsigned start = 0; start < len * 8 + 16; ++start) {
      for (unsigned width = 0; width <= 64; ++width) {
        BitReader r(bytes.data(), bytes.size());
        ByteReader ref(bytes.data(), bytes.size());
        for (unsigned left = start; left > 0;) {
          const unsigned step = left < 57 ? left : 57;
          ASSERT_EQ(r.get(step), ref.get(step));
          left -= step;
        }
        ASSERT_EQ(r.get(width), ref.get(width))
            << "len " << len << " start " << start << " width " << width;
        ASSERT_EQ(r.get(13), ref.get(13)) << "len " << len << " start " << start;
        ASSERT_EQ(r.get(64), ref.get(64)) << "len " << len << " start " << start;
      }
    }
  }
}

TEST(BitStream, RandomWidthSequencesMatchPerByteReader) {
  Pcg32 rng(0x5EED);
  for (int trial = 0; trial < 2'000; ++trial) {
    const std::vector<std::uint8_t> bytes = random_bytes(rng, rng.bounded(40));
    BitReader r(bytes.data(), bytes.size());
    ByteReader ref(bytes.data(), bytes.size());
    std::size_t read = 0;
    while (read < bytes.size() * 8 + 128) {
      const unsigned width = rng.bounded(65);
      ASSERT_EQ(r.get(width), ref.get(width)) << "trial " << trial << " at bit " << read;
      read += width;
    }
  }
}

TEST(BitStream, PeekDoesNotConsume) {
  const std::uint8_t bytes[] = {0b1011'0011, 0x5A};
  BitReader r(bytes, sizeof bytes);
  EXPECT_EQ(r.peek(0), 0u);
  EXPECT_EQ(r.peek(4), 0b1011u);
  EXPECT_EQ(r.peek(4), 0b1011u);
  r.skip(3);
  EXPECT_EQ(r.peek(5), 0b10011u);
  EXPECT_EQ(r.get(13), 0b1'0011'0101'1010u);
  EXPECT_EQ(r.peek(56), 0u);  // past the end
}

TEST(ChunkCodec, SinglePoint) { expect_roundtrip({{123'456'789, 42.5}}); }

TEST(ChunkCodec, RegularCadenceDecimalValues) {
  // The monitoring-series sweet spot: fixed cadence and a gauge that
  // changes only occasionally (the Gorilla-paper observation: most
  // consecutive samples repeat).  Must round-trip AND compress >= 8x
  // vs the 16-byte raw DataPoint.
  std::vector<Point> points;
  double v = 128.5;
  for (int i = 0; i < 512; ++i) {
    if (i % 4 == 0) v += (i % 8 == 0) ? 0.25 : -0.25;
    points.push_back({i * 1'000'000'000LL, v});
  }
  expect_roundtrip(points);

  ChunkWriter w;
  for (const Point& p : points) w.append(Timestamp::from_ns(p.ts), p.value);
  const double bytes_per_point =
      static_cast<double>(w.size_bytes()) / static_cast<double>(points.size());
  EXPECT_LT(bytes_per_point, 2.0) << "regular cadence should compress >= 8x vs 16 B raw";
}

TEST(ChunkCodec, EqualTimestampRuns) {
  std::vector<Point> points;
  for (int i = 0; i < 100; ++i) points.push_back({5'000, 1.0});
  for (int i = 0; i < 100; ++i) points.push_back({5'000, 2.0 + i});
  expect_roundtrip(points);
}

TEST(ChunkCodec, OutOfOrderTimestamps) {
  expect_roundtrip({{100, 1.0}, {50, 2.0}, {200, 3.0}, {-7, 4.0}, {200, 5.0}});
}

TEST(ChunkCodec, SpecialValues) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_roundtrip({{0, qnan},
                    {1, -qnan},
                    {2, snan},
                    {3, inf},
                    {4, -inf},
                    {5, 0.0},
                    {6, -0.0},
                    {7, std::numeric_limits<double>::denorm_min()},
                    {8, std::numeric_limits<double>::max()},
                    {9, -std::numeric_limits<double>::max()},
                    {10, std::numeric_limits<double>::min()}});
}

TEST(ChunkCodec, ExtremeTimestamps) {
  // Large dods exercise the '1111' raw-zigzag escape in both directions.
  expect_roundtrip({{0, 1.0},
                    {4'000'000'000'000'000'000LL, 2.0},
                    {-4'000'000'000'000'000'000LL, 3.0},
                    {0, 4.0},
                    {1, 5.0}});
}

TEST(ChunkCodec, FuzzRandomWalks) {
  Pcg32 rng(0x9e3779b9u);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Point> points;
    const int n = 1 + static_cast<int>(rng.bounded(300));
    std::int64_t ts = static_cast<std::int64_t>(rng.next_u64() % 1'000'000'000'000LL);
    double value = rng.uniform(0.0, 500.0);
    for (int i = 0; i < n; ++i) {
      switch (rng.bounded(6)) {
        case 0: ts += 0; break;                                    // repeat timestamp
        case 1: ts += 1'000'000'000; break;                        // steady cadence
        case 2: ts += static_cast<std::int64_t>(rng.bounded(1u << 20)); break;
        case 3: ts -= static_cast<std::int64_t>(rng.bounded(1u << 16)); break;
        case 4: ts += static_cast<std::int64_t>(rng.next_u64() % (1ULL << 50)); break;
        default: ts += 999'999'937; break;                         // prime jitter
      }
      switch (rng.bounded(6)) {
        case 0: break;                                             // repeat value
        case 1: value += 0.5; break;                               // exact decimal delta
        case 2: value = rng.uniform(-1e6, 1e6); break;
        case 3: value = rng.normal(128.0, 40.0); break;
        case 4: value = std::numeric_limits<double>::quiet_NaN(); break;
        default: value *= -1.0001; break;
      }
      points.push_back({ts, value});
    }
    expect_roundtrip(points);
  }
}

TEST(ChunkCodec, FuzzScaledIntegerFriendlyWalks) {
  // Millisecond-precision latency walks: the scaled-int path dominates;
  // must stay exact across scale/width escalations.
  Pcg32 rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Point> points;
    std::int64_t ts = 0;
    double ms = 100.0;
    const int n = 2 + static_cast<int>(rng.bounded(400));
    for (int i = 0; i < n; ++i) {
      ts += 10'000'000 + rng.bounded(1000);
      ms += (static_cast<double>(rng.bounded(2001)) - 1000.0) / 1000.0;  // +-1.000 in 0.001 steps
      points.push_back({ts, ms});
    }
    expect_roundtrip(points);
  }
}

TEST(ChunkCodec, BatchedReadsMatchPointReads) {
  // The engine decodes a batch at a time; any split of the stream into
  // batches must give the points next() gives, across every value mode.
  Pcg32 rng(0xBA7C);
  ChunkWriter w;
  std::vector<Point> points;
  std::int64_t ts = 0;
  double ms = 100.0;
  for (int i = 0; i < 3'000; ++i) {
    ts += 500'000 + rng.bounded(1'000'000);
    switch (rng.bounded(4)) {
      case 0: break;                                                        // repeat
      case 1: ms = static_cast<double>(80'000'000 + rng.bounded(220'000'000)) / 1e6; break;
      case 2: ms = rng.uniform(-1e3, 1e3); break;                          // XOR
      default: ms += 0.25; break;
    }
    points.push_back({ts, ms});
    w.append(Timestamp::from_ns(ts), ms);
  }
  const auto sealed = w.seal();
  for (const std::uint32_t batch : {1u, 2u, 7u, 64u, 511u, 512u, 5'000u}) {
    ChunkCursor cursor(*sealed);
    std::vector<std::int64_t> got_ts(batch);
    std::vector<double> got(batch);
    std::size_t at = 0;
    while (const std::uint32_t n = cursor.read(got_ts.data(), got.data(), batch)) {
      for (std::uint32_t i = 0; i < n; ++i, ++at) {
        ASSERT_LT(at, points.size());
        EXPECT_EQ(got_ts[i], points[at].ts) << "batch " << batch << " point " << at;
        EXPECT_EQ(bits_of(got[i]), bits_of(points[at].value))
            << "batch " << batch << " point " << at;
      }
    }
    EXPECT_EQ(at, points.size()) << "batch " << batch;
  }
}

TEST(ChunkCodec, LargeScaledIntegersStayExact) {
  // Scaled integers up to the 9e15 limit, neighbours switching scale:
  // the decoder reuses the previous point's integer only at the same
  // scale and recomputes it otherwise, exact either way.
  std::vector<Point> points;
  const std::int64_t base = std::int64_t{1} << 50;
  for (std::int64_t i = -6; i <= 6; ++i) {
    points.push_back({i, static_cast<double>(base + i * 3)});
    points.push_back({i, static_cast<double>(base + i * 3) / 1e3});
    points.push_back({i, static_cast<double>(-base - i) / 1e6});
    points.push_back({i, 8.9e15 - static_cast<double>(i)});
    points.push_back({i, (8.9e15 - static_cast<double>(i * 7)) / 1e3});
  }
  expect_roundtrip(points);
}

TEST(ChunkWriter, SealEmptyReturnsNull) {
  ChunkWriter w;
  EXPECT_EQ(w.seal(), nullptr);
}

TEST(ChunkWriter, SealResetsForReuse) {
  ChunkWriter w;
  w.append(Timestamp::from_ns(10), 1.0);
  w.append(Timestamp::from_ns(20), 2.0);
  const auto first = w.seal();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->count, 2u);
  EXPECT_EQ(first->min_ts, 10);
  EXPECT_EQ(first->max_ts, 20);
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.size_bytes(), 0u);

  // The reused writer must not leak predictor state from before the
  // seal: the next chunk decodes standalone.
  w.append(Timestamp::from_ns(30), 3.0);
  const auto second = w.seal();
  ASSERT_NE(second, nullptr);
  ChunkCursor cursor(*second);
  Timestamp ts;
  double value;
  ASSERT_TRUE(cursor.next(ts, value));
  EXPECT_EQ(ts.ns, 30);
  EXPECT_EQ(value, 3.0);
  EXPECT_FALSE(cursor.next(ts, value));
}

TEST(ChunkWriter, MinMaxTrackOutOfOrderAppends) {
  ChunkWriter w;
  w.append(Timestamp::from_ns(100), 1.0);
  w.append(Timestamp::from_ns(-5), 2.0);
  w.append(Timestamp::from_ns(60), 3.0);
  EXPECT_EQ(w.min_ts(), -5);
  EXPECT_EQ(w.max_ts(), 100);
}

TEST(ChunkWriter, SnapshotMidWriteDecodesPrefix) {
  // The engine copies open-chunk bytes under the shard lock and decodes
  // them after releasing it; the snapshot must be a self-consistent
  // prefix even though the writer keeps appending afterwards.
  ChunkWriter w;
  std::vector<Point> all;
  Pcg32 rng(7);
  for (int i = 0; i < 200; ++i) {
    const Point p{i * 123'456LL, rng.uniform(0.0, 10.0)};
    all.push_back(p);
    w.append(Timestamp::from_ns(p.ts), p.value);
    if (i % 17 == 0) {
      std::vector<std::uint8_t> bytes;
      const std::uint32_t n = w.snapshot(bytes);
      ASSERT_EQ(n, static_cast<std::uint32_t>(i + 1));
      ChunkCursor cursor(bytes.data(), bytes.size(), n);
      Timestamp ts;
      double value;
      for (std::uint32_t k = 0; k < n; ++k) {
        ASSERT_TRUE(cursor.next(ts, value));
        EXPECT_EQ(ts.ns, all[k].ts);
        EXPECT_EQ(bits_of(value), bits_of(all[k].value));
      }
      EXPECT_FALSE(cursor.next(ts, value));
    }
  }
}

}  // namespace
}  // namespace ruru
