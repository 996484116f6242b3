// WAL v2 (length + CRC32 framing): round-trip through TsdbEngine,
// checked against the legacy test oracle, plus the recovery contract
// the format exists for — replay applies exactly the records that were
// fully and correctly written, truncating at the first torn or corrupt
// record.  The truncation test cuts the log at EVERY byte offset; the
// corruption test flips EVERY byte.  Both assertions are exact, not
// "some prefix": the framed record boundaries are recomputed from the
// headers, so the tests fail loudly if the format or the recovery
// logic drifts.

#include "tsdb/wal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "oracle/legacy_tsdb.hpp"
#include "tsdb/query.hpp"

namespace ruru {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("wal_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".wal"))
                .string();
    mut_path_ = path_ + ".mut";
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mut_path_.c_str());
  }
  std::string path_;
  std::string mut_path_;
};

TagSet tags(std::string src) {
  TagSet t;
  t.add("src_city", std::move(src)).add("dst_city", "LA");
  return t;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes,
                std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(len));
}

/// Walks the framed records (u32 len | u32 crc | payload) and returns
/// each record's exclusive end offset.
std::vector<std::size_t> record_ends(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> ends;
  std::size_t off = 0;
  while (off + 8 <= bytes.size()) {
    const std::uint32_t len = static_cast<std::uint32_t>(bytes[off]) |
                              (static_cast<std::uint32_t>(bytes[off + 1]) << 8) |
                              (static_cast<std::uint32_t>(bytes[off + 2]) << 16) |
                              (static_cast<std::uint32_t>(bytes[off + 3]) << 24);
    if (off + 8 + len > bytes.size()) break;
    off += 8 + len;
    ends.push_back(off);
  }
  return ends;
}

TEST_F(WalTest, ReplayRebuildsExactState) {
  TsdbEngine original;
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok()) << wal.error();
    original.attach_wal(&wal.value());
    original.write("total_ms", tags("Auckland"), Timestamp::from_ms(1), 128.5);
    original.write("total_ms", tags("Auckland"), Timestamp::from_ms(2), 130.25);
    original.write("internal_ms", tags("Wellington"), Timestamp::from_ms(3), 5.0);
    EXPECT_EQ(wal.value().records(), 3u);
    wal.value().sync();
  }

  TsdbEngine rebuilt;
  const auto applied = Wal::replay(path_, rebuilt);
  ASSERT_TRUE(applied.ok()) << applied.error();
  EXPECT_EQ(applied.value(), 3u);
  EXPECT_EQ(rebuilt.points_written(), 3u);
  EXPECT_EQ(rebuilt.series_count(), 2u);

  const auto a = original.aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(1));
  const auto b = rebuilt.aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(1));
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);

  // Tag filters still work post-replay (canonical form parsed back).
  TagSet filter;
  filter.add("src_city", "Wellington");
  EXPECT_EQ(rebuilt.aggregate("internal_ms", filter, Timestamp{}, Timestamp::from_sec(1)).count,
            1u);
}

TEST_F(WalTest, EngineWritesReplayIntoEngineAndLegacy) {
  // A log written by the engine rebuilds an engine that answers exactly
  // like the legacy oracle fed the same points directly (oracle parity
  // holds through a WAL round-trip, tags included).
  TimeSeriesDb legacy;
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok()) << wal.error();
    TsdbEngine engine;
    engine.attach_wal(&wal.value());
    const SeriesId sid = engine.series("total_ms", tags("Auckland"));
    for (int i = 0; i < 100; ++i) {
      engine.append(sid, Timestamp::from_ms(i), 100.0 + i * 0.5);
      legacy.write("total_ms", tags("Auckland"), Timestamp::from_ms(i), 100.0 + i * 0.5);
    }
    engine.write("internal_ms", tags("Wellington"), Timestamp::from_ms(7), 5.0);
    legacy.write("internal_ms", tags("Wellington"), Timestamp::from_ms(7), 5.0);
    EXPECT_EQ(wal.value().records(), 101u);
    wal.value().sync();
  }

  TsdbEngine rebuilt;
  const auto applied = Wal::replay(path_, rebuilt);
  ASSERT_TRUE(applied.ok()) << applied.error();
  EXPECT_EQ(applied.value(), 101u);
  EXPECT_EQ(rebuilt.points_written(), legacy.points_written());
  EXPECT_EQ(rebuilt.series_count(), legacy.series_count());

  TagSet filter;
  filter.add("src_city", "Auckland");
  const auto a = legacy.aggregate("total_ms", filter, Timestamp{}, Timestamp::from_sec(10));
  const auto b = rebuilt.aggregate("total_ms", filter, Timestamp{}, Timestamp::from_sec(10));
  EXPECT_EQ(a.count, 100u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
}

TEST_F(WalTest, ToleratesTornTail) {
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok());
    TsdbEngine db;
    db.attach_wal(&wal.value());
    db.write("m", tags("A"), Timestamp::from_ms(1), 1.0);
    db.write("m", tags("B"), Timestamp::from_ms(2), 2.0);
    wal.value().sync();
  }
  // Simulate a crash mid-append.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  const std::uint8_t partial[5] = {3, 0, 'z', 'z', 'z'};
  std::fwrite(partial, 1, sizeof partial, f);
  std::fclose(f);

  TsdbEngine rebuilt;
  const auto applied = Wal::replay(path_, rebuilt);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 2u);  // intact records only
}

TEST_F(WalTest, TruncationAtEveryByteOffset) {
  constexpr int kRecords = 6;
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok());
    TsdbEngine db;
    db.attach_wal(&wal.value());
    for (int i = 0; i < kRecords; ++i) {
      // Varying string lengths so record sizes differ.
      db.write("m" + std::string(static_cast<std::size_t>(i % 3), 'x'),
               tags("city" + std::to_string(i)), Timestamp::from_ms(i),
               static_cast<double>(i));
    }
    wal.value().sync();
  }

  const std::vector<std::uint8_t> bytes = read_file(path_);
  const std::vector<std::size_t> ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(kRecords));
  ASSERT_EQ(ends.back(), bytes.size());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_file(mut_path_, bytes, cut);
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;

    TsdbEngine rebuilt;
    const auto applied = Wal::replay(mut_path_, rebuilt);
    ASSERT_TRUE(applied.ok()) << "cut at " << cut;
    EXPECT_EQ(applied.value(), expect) << "cut at " << cut;
    EXPECT_EQ(rebuilt.points_written(), expect) << "cut at " << cut;
  }
}

TEST_F(WalTest, ByteFlipStopsAtDamagedRecord) {
  constexpr int kRecords = 4;
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok());
    TsdbEngine db;
    db.attach_wal(&wal.value());
    for (int i = 0; i < kRecords; ++i) {
      db.write("m", tags("c" + std::to_string(i)), Timestamp::from_ms(i),
               static_cast<double>(i));
    }
    wal.value().sync();
  }

  const std::vector<std::uint8_t> bytes = read_file(path_);
  const std::vector<std::size_t> ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(kRecords));

  std::vector<std::uint8_t> mutated = bytes;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    mutated[pos] = static_cast<std::uint8_t>(bytes[pos] ^ 0xFF);
    write_file(mut_path_, mutated, mutated.size());
    mutated[pos] = bytes[pos];

    // The record containing the flipped byte fails its CRC (or its
    // length sanity check); everything before it replays, nothing at
    // or after it does.
    std::size_t damaged = 0;
    while (ends[damaged] <= pos) ++damaged;

    TsdbEngine rebuilt;
    const auto applied = Wal::replay(mut_path_, rebuilt);
    ASSERT_TRUE(applied.ok()) << "flip at " << pos;
    EXPECT_EQ(applied.value(), damaged) << "flip at " << pos;
    EXPECT_EQ(rebuilt.points_written(), damaged) << "flip at " << pos;
  }
}

TEST_F(WalTest, ImplausibleLengthFieldsStopReplay) {
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok());
    TsdbEngine db;
    db.attach_wal(&wal.value());
    db.write("m", tags("A"), Timestamp::from_ms(1), 1.0);
    db.write("m", tags("B"), Timestamp::from_ms(2), 2.0);
    wal.value().sync();
  }
  const std::vector<std::uint8_t> bytes = read_file(path_);
  const std::vector<std::size_t> ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), 2u);

  // Overwrite record 1's length with each implausible value: zero
  // (below the fixed payload floor) and huge (past the framing cap).
  for (const std::uint32_t bad_len : {0u, 0xFFFF'FFFFu, 7u}) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t off = ends[0];
    mutated[off + 0] = static_cast<std::uint8_t>(bad_len);
    mutated[off + 1] = static_cast<std::uint8_t>(bad_len >> 8);
    mutated[off + 2] = static_cast<std::uint8_t>(bad_len >> 16);
    mutated[off + 3] = static_cast<std::uint8_t>(bad_len >> 24);
    write_file(mut_path_, mutated, mutated.size());

    TsdbEngine rebuilt;
    const auto applied = Wal::replay(mut_path_, rebuilt);
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(applied.value(), 1u) << "len=" << bad_len;
  }
}

TEST_F(WalTest, ReplayMissingFileFails) {
  TsdbEngine db;
  EXPECT_FALSE(Wal::replay("/no/such/file.wal", db).ok());
}

TEST_F(WalTest, EmptyWalReplaysZero) {
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok());
  }
  TsdbEngine db;
  const auto applied = Wal::replay(path_, db);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 0u);
}

TEST_F(WalTest, ManyRecordsSurvive) {
  {
    auto wal = Wal::create(path_);
    ASSERT_TRUE(wal.ok());
    TsdbEngine db;
    db.attach_wal(&wal.value());
    for (int i = 0; i < 10'000; ++i) {
      db.write("m", tags("city" + std::to_string(i % 20)), Timestamp::from_ms(i),
               static_cast<double>(i));
    }
    wal.value().sync();
  }
  TsdbEngine rebuilt;
  const auto applied = Wal::replay(path_, rebuilt);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 10'000u);
  EXPECT_EQ(rebuilt.series_count(), 20u);
}

}  // namespace
}  // namespace ruru
