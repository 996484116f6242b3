// Loader robustness for the three range-DB file formats: untrusted
// files must fail cleanly — garbage, truncation at every byte, a
// record count larger than the file could possibly hold (the bound
// that keeps a 12-byte file from reserving 4 G records), and records
// that decode but violate the non-overlap invariant.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "geo/as_db.hpp"
#include "geo/db_io.hpp"
#include "geo/geo6_db.hpp"
#include "geo/geo_db.hpp"

namespace ruru {
namespace {

std::string temp_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string(tag) + "_" + std::to_string(::getpid()) + ".db"))
      .string();
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

void patch_u32(std::vector<std::uint8_t>& data, std::size_t off, std::uint32_t v) {
  data[off] = static_cast<std::uint8_t>(v);
  data[off + 1] = static_cast<std::uint8_t>(v >> 8);
  data[off + 2] = static_cast<std::uint8_t>(v >> 16);
  data[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

// ---- reference databases -------------------------------------------------

std::vector<std::uint8_t> golden_geo_bytes(const std::string& path) {
  GeoRecord a;
  a.range_start = 100;
  a.range_end = 199;
  a.country = "NZ";
  a.city = "Auckland";
  a.latitude = -36.8;
  a.longitude = 174.7;
  GeoRecord b;
  b.range_start = 0xC0000000;
  b.range_end = 0xC00000FF;
  b.country = "US";
  b.city = "Los Angeles";
  auto db = GeoDatabase::build({a, b});
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(db.value().save(path).ok());
  return read_bytes(path);
}

std::vector<std::uint8_t> golden_as_bytes(const std::string& path) {
  AsRecord a;
  a.range_start = 100;
  a.range_end = 199;
  a.asn = 9431;
  a.organization = "REANNZ";
  AsRecord b;
  b.range_start = 200;
  b.range_end = 299;
  b.asn = 15169;
  b.organization = "Google LLC";
  auto db = AsDatabase::build({a, b});
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(db.value().save(path).ok());
  return read_bytes(path);
}

std::vector<std::uint8_t> golden_geo6_bytes(const std::string& path) {
  auto v6 = [](const char* t) { return Ipv6Address::parse(t).value(); };
  Geo6Record a;
  a.range_start = v6("2001:db8::");
  a.range_end = v6("2001:db8::ffff");
  a.country = "NZ";
  a.city = "Auckland";
  a.asn = 9431;
  a.as_org = "REANNZ";
  Geo6Record b;
  b.range_start = v6("2001:db8:1::");
  b.range_end = v6("2001:db8:1::ffff");
  b.country = "US";
  b.city = "LA";
  auto db = Geo6Database::build({a, b});
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(db.value().save(path).ok());
  return read_bytes(path);
}

// ---- golden round-trips --------------------------------------------------

TEST(DbLoaderRobustness, GeoGoldenRoundTripIsByteStable) {
  const std::string p1 = temp_path("geo_gold1");
  const std::string p2 = temp_path("geo_gold2");
  const auto bytes = golden_geo_bytes(p1);
  auto loaded = GeoDatabase::load(p1);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_TRUE(loaded.value().save(p2).ok());
  EXPECT_EQ(read_bytes(p2), bytes);  // load -> save reproduces the file
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(DbLoaderRobustness, AsGoldenRoundTripIsByteStable) {
  const std::string p1 = temp_path("as_gold1");
  const std::string p2 = temp_path("as_gold2");
  const auto bytes = golden_as_bytes(p1);
  auto loaded = AsDatabase::load(p1);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_TRUE(loaded.value().save(p2).ok());
  EXPECT_EQ(read_bytes(p2), bytes);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(DbLoaderRobustness, Geo6GoldenRoundTripIsByteStable) {
  const std::string p1 = temp_path("geo6_gold1");
  const std::string p2 = temp_path("geo6_gold2");
  const auto bytes = golden_geo6_bytes(p1);
  auto loaded = Geo6Database::load(p1);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_TRUE(loaded.value().save(p2).ok());
  EXPECT_EQ(read_bytes(p2), bytes);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ---- truncation at every byte --------------------------------------------

template <typename LoadFn>
void expect_all_truncations_fail(const std::vector<std::uint8_t>& full, const std::string& path,
                                 LoadFn load) {
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_bytes(path, std::vector<std::uint8_t>(full.begin(), full.begin() + len));
    EXPECT_FALSE(load(path).ok()) << "truncated to " << len << " bytes parsed as valid";
  }
  std::remove(path.c_str());
}

TEST(DbLoaderRobustness, GeoTruncatedAtEveryByteFails) {
  const std::string p = temp_path("geo_trunc");
  expect_all_truncations_fail(golden_geo_bytes(p), p, GeoDatabase::load);
}

TEST(DbLoaderRobustness, AsTruncatedAtEveryByteFails) {
  const std::string p = temp_path("as_trunc");
  expect_all_truncations_fail(golden_as_bytes(p), p, AsDatabase::load);
}

TEST(DbLoaderRobustness, Geo6TruncatedAtEveryByteFails) {
  const std::string p = temp_path("geo6_trunc");
  expect_all_truncations_fail(golden_geo6_bytes(p), p, Geo6Database::load);
}

// ---- oversized record counts ---------------------------------------------

TEST(DbLoaderRobustness, GeoOversizedCountRejected) {
  const std::string p = temp_path("geo_count");
  auto bytes = golden_geo_bytes(p);
  patch_u32(bytes, 8, 0xFFFFFFFFu);  // count after magic + version
  write_bytes(p, bytes);
  auto r = GeoDatabase::load(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("count exceeds file size"), std::string::npos) << r.error();
  std::remove(p.c_str());
}

TEST(DbLoaderRobustness, AsOversizedCountRejected) {
  const std::string p = temp_path("as_count");
  auto bytes = golden_as_bytes(p);
  patch_u32(bytes, 4, 0xFFFFFFFFu);  // count after magic
  write_bytes(p, bytes);
  auto r = AsDatabase::load(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("count exceeds file size"), std::string::npos) << r.error();
  std::remove(p.c_str());
}

TEST(DbLoaderRobustness, Geo6OversizedCountRejected) {
  const std::string p = temp_path("geo6_count");
  auto bytes = golden_geo6_bytes(p);
  patch_u32(bytes, 8, 0xFFFFFFFFu);  // count after magic + version
  write_bytes(p, bytes);
  auto r = Geo6Database::load(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("count exceeds file size"), std::string::npos) << r.error();
  std::remove(p.c_str());
}

TEST(DbLoaderRobustness, CountLargerThanRecordsPresentRejected) {
  // A count that passes the min-record-size bound but exceeds the
  // records actually present must still fail (cursor exhaustion), not
  // fabricate records.
  const std::string p = temp_path("geo_count2");
  auto bytes = golden_geo_bytes(p);
  patch_u32(bytes, 8, 3);  // file holds 2 records
  write_bytes(p, bytes);
  EXPECT_FALSE(GeoDatabase::load(p).ok());
  std::remove(p.c_str());
}

// ---- records that decode but violate invariants --------------------------

TEST(DbLoaderRobustness, GeoOverlappingRangesInFileRejected) {
  // Hand-build a well-formed v1 file whose two ranges overlap.
  std::vector<std::uint8_t> out;
  geo_io::put_u32(out, 0x4F454747);  // "GGEO"
  geo_io::put_u32(out, 1);           // version
  geo_io::put_u32(out, 2);           // count
  auto put_rec = [&out](std::uint32_t start, std::uint32_t end) {
    geo_io::put_u32(out, start);
    geo_io::put_u32(out, end);
    geo_io::put_str(out, "XX");
    geo_io::put_str(out, "city");
    geo_io::put_f64(out, 0.0);
    geo_io::put_f64(out, 0.0);
  };
  put_rec(100, 200);
  put_rec(150, 250);  // overlaps
  const std::string p = temp_path("geo_overlap");
  write_bytes(p, out);
  auto r = GeoDatabase::load(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("overlapping"), std::string::npos) << r.error();
  std::remove(p.c_str());
}

}  // namespace
}  // namespace ruru
