#include "flow/group_probe.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/random.hpp"

namespace ruru {
namespace {

// Control arrays that hit every byte class: tags (0x00..0x7F), empties
// (0x80) and tombstones (0xFE), in random mixtures.
std::array<std::uint8_t, kFlowGroupWidth> random_group(Pcg32& rng) {
  std::array<std::uint8_t, kFlowGroupWidth> g{};
  for (auto& b : g) {
    switch (rng.bounded(4)) {
      case 0:
        b = kCtrlEmpty;
        break;
      case 1:
        b = kCtrlTombstone;
        break;
      default:
        b = static_cast<std::uint8_t>(rng.bounded(0x80));
        break;
    }
  }
  return g;
}

TEST(GroupProbe, ScalarMatchFindsExactPositions) {
  std::array<std::uint8_t, kFlowGroupWidth> g{};
  g.fill(kCtrlEmpty);
  g[0] = 0x2A;
  g[7] = 0x2A;
  g[15] = 0x2A;
  EXPECT_EQ(group_match_scalar(g.data(), 0x2A), (1u << 0) | (1u << 7) | (1u << 15));
  EXPECT_EQ(group_match_scalar(g.data(), 0x2B), 0u);
}

TEST(GroupProbe, ScalarClassMasksPartitionTheGroup) {
  Pcg32 rng(101);
  for (int iter = 0; iter < 1000; ++iter) {
    const auto g = random_group(rng);
    const GroupMask full = group_full_scalar(g.data());
    const GroupMask reusable = group_reusable_scalar(g.data());
    const GroupMask empty = group_empty_scalar(g.data());
    // Full and reusable partition all 16 positions; empty ⊆ reusable.
    EXPECT_EQ(full & reusable, 0u);
    EXPECT_EQ(full | reusable, 0xFFFFu);
    EXPECT_EQ(empty & ~reusable, 0u);
    for (std::size_t i = 0; i < kFlowGroupWidth; ++i) {
      EXPECT_EQ((full >> i) & 1u, (g[i] & 0x80u) == 0 ? 1u : 0u);
    }
  }
}

TEST(GroupProbe, ScalarMaskedEqSelectsPureAckLanes) {
  // The worker's classify predicate: (flags & (SYN|FIN|RST|ACK)) == ACK.
  // 0x10 = bare ACK, 0x18 = ACK|PSH (still a pure data segment); any
  // SYN/FIN/RST bit or the 0xFF ineligible sentinel must never match.
  std::array<std::uint8_t, kFlowGroupWidth> g{};
  g.fill(0xFF);  // ineligible / tail padding
  g[0] = 0x10;   // ACK
  g[3] = 0x18;   // ACK|PSH
  g[5] = 0x12;   // ACK|SYN
  g[7] = 0x11;   // ACK|FIN
  g[9] = 0x14;   // ACK|RST
  g[11] = 0x02;  // bare SYN
  g[13] = 0x00;  // no flags
  const GroupMask m = group_masked_eq_scalar(g.data(), 0x17, 0x10);
  EXPECT_EQ(m, (1u << 0) | (1u << 3));
}

TEST(GroupProbe, TagsNeverMatchSentinels) {
  std::array<std::uint8_t, kFlowGroupWidth> g{};
  for (std::size_t i = 0; i < kFlowGroupWidth; ++i) {
    g[i] = (i % 2 == 0) ? kCtrlEmpty : kCtrlTombstone;
  }
  for (unsigned tag = 0; tag < 0x80; ++tag) {
    EXPECT_EQ(group_match_scalar(g.data(), static_cast<std::uint8_t>(tag)), 0u);
  }
}

#if RURU_FLOW_GROUP_SIMD

TEST(GroupProbe, SimdMatchesScalarOnRandomGroupsAllTags) {
  Pcg32 rng(202);
  for (int iter = 0; iter < 500; ++iter) {
    const auto g = random_group(rng);
    for (unsigned tag = 0; tag < 0x80; ++tag) {
      const auto t = static_cast<std::uint8_t>(tag);
      ASSERT_EQ(group_match_simd(g.data(), t), group_match_scalar(g.data(), t))
          << "iter " << iter << " tag " << tag;
    }
    ASSERT_EQ(group_empty_simd(g.data()), group_empty_scalar(g.data()));
    ASSERT_EQ(group_full_simd(g.data()), group_full_scalar(g.data()));
    ASSERT_EQ(group_reusable_simd(g.data()), group_reusable_scalar(g.data()));
  }
}

TEST(GroupProbe, SimdHandlesAllEmptyAndAllFullGroups) {
  std::array<std::uint8_t, kFlowGroupWidth> g{};
  g.fill(kCtrlEmpty);
  EXPECT_EQ(group_empty_simd(g.data()), 0xFFFFu);
  EXPECT_EQ(group_full_simd(g.data()), 0u);
  EXPECT_EQ(group_reusable_simd(g.data()), 0xFFFFu);
  g.fill(0x3C);
  EXPECT_EQ(group_empty_simd(g.data()), 0u);
  EXPECT_EQ(group_full_simd(g.data()), 0xFFFFu);
  EXPECT_EQ(group_reusable_simd(g.data()), 0u);
  EXPECT_EQ(group_match_simd(g.data(), 0x3C), 0xFFFFu);
}

TEST(GroupProbe, SimdMaskedEqMatchesScalarOnRandomBytes) {
  // Full-range bytes (TCP flags, not ctrl tags) with random mask/value
  // pairs — the masked compare must agree lane-for-lane with the scalar
  // twin, including the all-ones sentinel lanes.
  Pcg32 rng(404);
  for (int iter = 0; iter < 1000; ++iter) {
    std::array<std::uint8_t, kFlowGroupWidth> g{};
    for (auto& b : g) b = static_cast<std::uint8_t>(rng.bounded(256));
    if (rng.bounded(4) == 0) g[rng.bounded(kFlowGroupWidth)] = 0xFF;
    const auto mask = static_cast<std::uint8_t>(rng.bounded(256));
    const auto value = static_cast<std::uint8_t>(rng.bounded(256) & mask);
    ASSERT_EQ(group_masked_eq_simd(g.data(), mask, value),
              group_masked_eq_scalar(g.data(), mask, value))
        << "iter " << iter << " mask " << int(mask) << " value " << int(value);
  }
}

#endif  // RURU_FLOW_GROUP_SIMD

// The dispatchers are what the flow table and the worker call: on a
// SIMD build they are the SIMD kernels (checked at compile time), and
// they agree with the scalar twins.
#if RURU_FLOW_GROUP_SIMD
static_assert(&group_match == &group_match_simd && &group_empty == &group_empty_simd &&
              &group_full == &group_full_simd && &group_reusable == &group_reusable_simd &&
              &group_masked_eq == &group_masked_eq_simd);
#else
static_assert(&group_match == &group_match_scalar && &group_empty == &group_empty_scalar &&
              &group_full == &group_full_scalar && &group_reusable == &group_reusable_scalar &&
              &group_masked_eq == &group_masked_eq_scalar);
#endif

TEST(GroupProbe, DispatchRoutesToRequestedKernel) {
  Pcg32 rng(303);
  for (int iter = 0; iter < 200; ++iter) {
    const auto g = random_group(rng);
    const auto tag = static_cast<std::uint8_t>(rng.bounded(0x80));
    ASSERT_EQ(group_match(g.data(), tag), group_match_scalar(g.data(), tag));
    ASSERT_EQ(group_empty(g.data()), group_empty_scalar(g.data()));
    ASSERT_EQ(group_full(g.data()), group_full_scalar(g.data()));
    ASSERT_EQ(group_reusable(g.data()), group_reusable_scalar(g.data()));
    ASSERT_EQ(group_masked_eq(g.data(), 0x17, 0x10), group_masked_eq_scalar(g.data(), 0x17, 0x10));
  }
}

// Exhaustive lane coverage: every byte value at every lane position, over
// backgrounds of each control class, through the build's kernels (the
// dispatchers) against the scalar twins.  Random groups can miss a lane
// whose byte sits on a sign or sentinel boundary; this cannot.
TEST(GroupProbe, EveryKernelMatchesScalarForEveryByteAtEveryLane) {
  constexpr std::array<std::uint8_t, 4> kBackgrounds = {kCtrlEmpty, kCtrlTombstone, 0x00, 0x7F};
  constexpr std::array<std::uint8_t, 6> kMasks = {0xFF, 0x17, 0x80, 0x7F, 0x01, 0x00};
  for (const std::uint8_t bg : kBackgrounds) {
    for (std::size_t lane = 0; lane < kFlowGroupWidth; ++lane) {
      std::array<std::uint8_t, kFlowGroupWidth> g{};
      g.fill(bg);
      for (unsigned b = 0; b < 256; ++b) {
        const auto byte = static_cast<std::uint8_t>(b);
        g[lane] = byte;
        SCOPED_TRACE(testing::Message() << "background " << int(bg) << " lane " << lane
                                        << " byte " << b);
        ASSERT_EQ(group_empty(g.data()), group_empty_scalar(g.data()));
        ASSERT_EQ(group_full(g.data()), group_full_scalar(g.data()));
        ASSERT_EQ(group_reusable(g.data()), group_reusable_scalar(g.data()));
        for (unsigned t = 0; t < 256; ++t) {
          const auto tag = static_cast<std::uint8_t>(t);
          ASSERT_EQ(group_match(g.data(), tag), group_match_scalar(g.data(), tag)) << "tag " << t;
        }
        for (const std::uint8_t mask : kMasks) {
          for (const std::uint8_t value :
               {static_cast<std::uint8_t>(byte & mask), static_cast<std::uint8_t>(bg & mask),
                static_cast<std::uint8_t>((byte ^ 0x10u) & mask)}) {
            ASSERT_EQ(group_masked_eq(g.data(), mask, value),
                      group_masked_eq_scalar(g.data(), mask, value))
                << "mask " << int(mask) << " value " << int(value);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ruru
