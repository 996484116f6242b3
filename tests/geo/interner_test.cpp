#include "geo/interner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ruru {
namespace {

TEST(StringInterner, EmptyStringIsIdZero) {
  StringInterner in;
  EXPECT_EQ(in.intern(""), 0u);
  EXPECT_EQ(in.view(0), "");
  EXPECT_EQ(in.size(), 1u);
}

TEST(StringInterner, SameStringSameId) {
  StringInterner in;
  const std::uint32_t a = in.intern("Auckland");
  const std::uint32_t b = in.intern("Auckland");
  EXPECT_EQ(a, b);
  EXPECT_EQ(in.view(a), "Auckland");
}

TEST(StringInterner, DistinctStringsDistinctIds) {
  StringInterner in;
  const std::uint32_t a = in.intern("Auckland");
  const std::uint32_t b = in.intern("Wellington");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.view(a), "Auckland");
  EXPECT_EQ(in.view(b), "Wellington");
}

TEST(StringInterner, IdsAreStableAcrossLaterInserts) {
  // The property every POD sample depends on: an id handed out at DB
  // load resolves to the same bytes forever, no matter how much is
  // interned afterwards.
  StringInterner in;
  std::vector<std::uint32_t> ids;
  std::vector<std::string> strings;
  for (int i = 0; i < 5'000; ++i) {
    strings.push_back("city-" + std::to_string(i));
    ids.push_back(in.intern(strings.back()));
  }
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_EQ(in.view(ids[i]), strings[i]);
    EXPECT_EQ(in.intern(strings[i]), ids[i]);  // re-intern dedupes
  }
}

TEST(StringInterner, OutOfRangeIdViewsEmpty) {
  StringInterner in;
  EXPECT_EQ(in.view(12345), "");
}

TEST(StringInterner, LongStringsSurviveArenaBlocks) {
  StringInterner in;
  const std::string big(200'000, 'x');  // larger than one arena block
  const std::uint32_t a = in.intern(big);
  const std::uint32_t b = in.intern("small");
  EXPECT_EQ(in.view(a), big);
  EXPECT_EQ(in.view(b), "small");
}

TEST(StringInterner, ConcurrentReadersSeeConsistentViews) {
  // Writers intern under a lock; readers resolve lock-free.  Each reader
  // checks that every id visible via size() resolves to the expected
  // round-trip value.
  StringInterner in;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 20'000; ++i) in.intern("w-" + std::to_string(i));
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const std::uint32_t n = in.size();
        for (std::uint32_t id = n > 16 ? n - 16 : 0; id < n; ++id) {
          const std::string_view v = in.view(id);
          // Either empty (only id 0) or a writer-format string.
          if (id != 0) {
            EXPECT_EQ(v.substr(0, 2), "w-");
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
}

TEST(StringInterner, GeoNamesSingletonIsProcessWide) {
  const std::uint32_t a = geo_names().intern("singleton-check");
  const std::uint32_t b = geo_names().intern("singleton-check");
  EXPECT_EQ(a, b);
  EXPECT_EQ(geo_names().view(a), "singleton-check");
}

}  // namespace
}  // namespace ruru
