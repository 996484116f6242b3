#pragma once
// Control-byte group probing for the two-level flow table.
//
// The flow table keeps one control byte per slot: a 7-bit fingerprint of
// the slot's hash (a "tag", 0x00..0x7F) when the slot is full, or one of
// two sentinel values with the high bit set.  A keyed probe scans 16
// control bytes at a time — one SSE2/NEON register — and only touches
// the wide per-slot verification data for slots whose tag matches, so
// the common miss costs a couple of vector compares instead of a walk
// over 16 eighty-byte records.
//
// Every kernel has a scalar twin with identical semantics.  The build
// picks one: the dispatch names at the bottom are the SIMD kernels when
// the target has SSE2 or NEON and the scalar twins otherwise.  The
// scalar twins are always compiled — they are the path on non-SIMD
// targets and the reference the test suite compares every SIMD kernel
// against.

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#define RURU_FLOW_GROUP_SIMD 1
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#define RURU_FLOW_GROUP_SIMD 1
#else
#define RURU_FLOW_GROUP_SIMD 0
#endif

namespace ruru {

/// Slots probed per vector op; the flow table's groups are aligned to it.
inline constexpr std::size_t kFlowGroupWidth = 16;

/// Control sentinels.  Both have the high bit set, so they can never
/// equal a tag (tags are 7-bit) and a single signed compare separates
/// "full" from "not full".
inline constexpr std::uint8_t kCtrlEmpty = 0x80;      ///< never occupied since construction
inline constexpr std::uint8_t kCtrlTombstone = 0xFE;  ///< erased or reclaimed slot

/// One bit per group position (bit i == control byte i).
using GroupMask = std::uint32_t;

// --- scalar kernels (always compiled, always tested) -------------------

/// Positions whose control byte equals `tag` exactly.
[[nodiscard]] inline GroupMask group_match_scalar(const std::uint8_t* group, std::uint8_t tag) {
  GroupMask m = 0;
  for (std::size_t i = 0; i < kFlowGroupWidth; ++i) {
    m |= static_cast<GroupMask>(group[i] == tag) << i;
  }
  return m;
}

/// Positions holding kCtrlEmpty.
[[nodiscard]] inline GroupMask group_empty_scalar(const std::uint8_t* group) {
  return group_match_scalar(group, kCtrlEmpty);
}

/// Positions holding a tag (full slots): high bit clear.
[[nodiscard]] inline GroupMask group_full_scalar(const std::uint8_t* group) {
  GroupMask m = 0;
  for (std::size_t i = 0; i < kFlowGroupWidth; ++i) {
    m |= static_cast<GroupMask>((group[i] & 0x80u) == 0) << i;
  }
  return m;
}

/// Positions an insert may claim: empty or tombstone (high bit set).
[[nodiscard]] inline GroupMask group_reusable_scalar(const std::uint8_t* group) {
  return static_cast<GroupMask>(~group_full_scalar(group)) & 0xFFFFu;
}

/// Positions where `(byte & mask) == value` — the generic byte-lane
/// classifier behind the worker's branchless candidate partition (the
/// TCP flags lane masked to SYN|FIN|RST|ACK and compared against a lone
/// ACK).  Lives here because it is the same shape as the tag probes: 16
/// bytes in, one bit per lane out, scalar/SIMD twins tested against each
/// other.
[[nodiscard]] inline GroupMask group_masked_eq_scalar(const std::uint8_t* group,
                                                      std::uint8_t mask, std::uint8_t value) {
  GroupMask m = 0;
  for (std::size_t i = 0; i < kFlowGroupWidth; ++i) {
    m |= static_cast<GroupMask>((group[i] & mask) == value) << i;
  }
  return m;
}

// --- SIMD kernels ------------------------------------------------------

#if defined(__SSE2__)

[[nodiscard]] inline GroupMask group_match_simd(const std::uint8_t* group, std::uint8_t tag) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  const __m128i t = _mm_set1_epi8(static_cast<char>(tag));
  return static_cast<GroupMask>(_mm_movemask_epi8(_mm_cmpeq_epi8(g, t)));
}

[[nodiscard]] inline GroupMask group_empty_simd(const std::uint8_t* group) {
  return group_match_simd(group, kCtrlEmpty);
}

[[nodiscard]] inline GroupMask group_full_simd(const std::uint8_t* group) {
  // movemask collects the high bit of every byte: set == empty/tombstone.
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  return static_cast<GroupMask>(~_mm_movemask_epi8(g)) & 0xFFFFu;
}

[[nodiscard]] inline GroupMask group_reusable_simd(const std::uint8_t* group) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  return static_cast<GroupMask>(_mm_movemask_epi8(g));
}

[[nodiscard]] inline GroupMask group_masked_eq_simd(const std::uint8_t* group, std::uint8_t mask,
                                                    std::uint8_t value) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  const __m128i m = _mm_and_si128(g, _mm_set1_epi8(static_cast<char>(mask)));
  const __m128i v = _mm_set1_epi8(static_cast<char>(value));
  return static_cast<GroupMask>(_mm_movemask_epi8(_mm_cmpeq_epi8(m, v)));
}

#elif defined(__ARM_NEON)

namespace detail {
/// Compresses a byte-wise 0x00/0xFF compare result to one bit per lane
/// via the shrn nibble trick (each output nibble mirrors one input byte).
[[nodiscard]] inline GroupMask neon_mask(uint8x16_t eq) {
  const uint8x8_t nibbles = vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
  std::uint64_t packed = vget_lane_u64(vreinterpret_u64_u8(nibbles), 0);
  packed &= 0x1111111111111111ULL;  // one bit per nibble
  GroupMask m = 0;
  while (packed != 0) {
    const int bit = __builtin_ctzll(packed);
    m |= GroupMask{1} << (bit >> 2);
    packed &= packed - 1;
  }
  return m;
}
}  // namespace detail

[[nodiscard]] inline GroupMask group_match_simd(const std::uint8_t* group, std::uint8_t tag) {
  const uint8x16_t g = vld1q_u8(group);
  return detail::neon_mask(vceqq_u8(g, vdupq_n_u8(tag)));
}

[[nodiscard]] inline GroupMask group_empty_simd(const std::uint8_t* group) {
  return group_match_simd(group, kCtrlEmpty);
}

[[nodiscard]] inline GroupMask group_full_simd(const std::uint8_t* group) {
  const uint8x16_t g = vld1q_u8(group);
  return detail::neon_mask(vcltq_u8(g, vdupq_n_u8(0x80)));
}

[[nodiscard]] inline GroupMask group_reusable_simd(const std::uint8_t* group) {
  const uint8x16_t g = vld1q_u8(group);
  return detail::neon_mask(vcgeq_u8(g, vdupq_n_u8(0x80)));
}

[[nodiscard]] inline GroupMask group_masked_eq_simd(const std::uint8_t* group, std::uint8_t mask,
                                                    std::uint8_t value) {
  const uint8x16_t g = vandq_u8(vld1q_u8(group), vdupq_n_u8(mask));
  return detail::neon_mask(vceqq_u8(g, vdupq_n_u8(value)));
}

#endif  // SIMD flavours

// --- dispatch ----------------------------------------------------------
//
// The kernel is a build-time choice: each dispatch name is the SIMD
// kernel when the target has one and the scalar twin otherwise.

#if RURU_FLOW_GROUP_SIMD
inline constexpr auto& group_match = group_match_simd;
inline constexpr auto& group_empty = group_empty_simd;
inline constexpr auto& group_full = group_full_simd;
inline constexpr auto& group_reusable = group_reusable_simd;
inline constexpr auto& group_masked_eq = group_masked_eq_simd;
#else
inline constexpr auto& group_match = group_match_scalar;
inline constexpr auto& group_empty = group_empty_scalar;
inline constexpr auto& group_full = group_full_scalar;
inline constexpr auto& group_reusable = group_reusable_scalar;
inline constexpr auto& group_masked_eq = group_masked_eq_scalar;
#endif

}  // namespace ruru
