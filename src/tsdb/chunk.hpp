#pragma once
// Gorilla-style compressed time-series chunks.
//
// One chunk holds one series' points over one time partition as a
// bit-packed stream: delta-of-delta timestamps and values encoded either
// as scaled-integer deltas (latency samples are ns-derived decimals, so
// "value * 10^k is a small integer delta" is the common case) or as
// XOR residuals against the previous value (the Gorilla fallback that
// round-trips any bit pattern, NaN payloads included).  Decoding is
// exact: every (timestamp, value) pair comes back bit-identical, which
// is what lets the query engine stay a drop-in oracle match for the
// uncompressed store.
//
// Stream layout (MSB-first bit stream):
//   point 0:  64-bit raw timestamp | 64-bit raw value bits
//   point n:  timestamp, then value
//     timestamp (dod = delta - previous delta, z = zigzag(dod)):
//       '0'                      dod == 0
//       '10'   + 14 bits         z < 2^14
//       '110'  + 28 bits         z < 2^28
//       '1110' + 44 bits         z < 2^44
//       '1111' + 64 bits         anything else (raw zigzag)
//     value:
//       '0'                      bit-identical to previous value
//       '10' + 2-bit scale k + 2-bit width w + {10,20,30,64}[w] bits
//            scaled-integer delta: round(v*10^{0,3,6}[k]) - round(prev*...)
//            (only emitted when both endpoints round-trip exactly)
//       '11' + Gorilla XOR: '0' + meaningful bits in the previous
//            leading/trailing window, or '1' + 5-bit leading-zero count
//            + 6-bit (length-1) + meaningful bits
//
// Chunk metadata (count, min/max timestamp, byte size) lives out of
// band in ChunkWriter / SealedChunk — the stream itself is headerless.
//
// Concurrency: a ChunkWriter is single-writer (the owning engine shard
// serializes appends); SealedChunk is immutable and safe to read from
// any thread without synchronization.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/time.hpp"

namespace ruru {

/// Append-only MSB-first bit sink backed by a byte vector.
class BitWriter {
 public:
  /// Appends the low `n` bits of `bits` (n in [0, 64]).
  void put(std::uint64_t bits, unsigned n);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size_bytes() const { return buf_.size(); }
  void clear() {
    buf_.clear();
    free_bits_ = 0;
  }

 private:
  std::vector<std::uint8_t> buf_;
  unsigned free_bits_ = 0;  ///< unused low bits in buf_.back()
};

/// MSB-first bit source over a byte span (not owning).
///
/// Keeps the next stream bits in a 64-bit window, most significant bit
/// first.  While at least 8 bytes remain it refills with one unaligned
/// big-endian 8-byte load; over the last 7 bytes it refills byte by
/// byte, so it never reads past the span.  Bits past the end read as 0.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t len) : next_(data), end_(data + len) {}

  /// Reads `n` bits (n in [0, 64]); returns 0 bits past the end (the
  /// caller bounds iteration by the out-of-band point count).
  std::uint64_t get(unsigned n) {
    if (n <= kMaxPeek) {
      const std::uint64_t v = peek(n);
      skip(n);
      return v;
    }
    const std::uint64_t hi = peek(32);
    skip(32);
    const std::uint64_t lo = peek(n - 32);
    skip(n - 32);
    return (hi << (n - 32)) | lo;
  }

  /// The next `n` bits (n in [0, 56]) without consuming them.
  std::uint64_t peek(unsigned n) {
    if (count_ < n) refill();
    return (window_ >> 1) >> (63 - n);  // n == 0 reads 0 without a 64-bit shift
  }

  /// Consumes `n` bits; only after a peek of at least `n`.
  void skip(unsigned n) {
    window_ <<= n;
    count_ -= n;
  }

  static constexpr unsigned kMaxPeek = 56;

 private:
  /// Tops the window up to at least kMaxPeek valid bits.
  void refill() {
    if (end_ - next_ < 8) {
      refill_tail();
      return;
    }
    std::uint64_t word;
    std::memcpy(&word, next_, sizeof word);
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
    window_ |= word >> count_;
    next_ += (63 - count_) >> 3;
    count_ |= 56;
  }
  void refill_tail();

  std::uint64_t window_ = 0;  ///< next stream bits, MSB first
  unsigned count_ = 0;        ///< valid bits at the top of window_
  // The first byte not yet wholly in the window.  The window's bits
  // below count_ are zero or this byte's leading bits, so a refill may
  // OR the byte in again.
  const std::uint8_t* next_;
  const std::uint8_t* end_;
};

/// An immutable, fully-encoded chunk. Reads need no lock.
struct SealedChunk {
  std::vector<std::uint8_t> bytes;
  std::uint32_t count = 0;
  std::int64_t min_ts = 0;
  std::int64_t max_ts = 0;
};

/// Streaming encoder for one open chunk.
class ChunkWriter {
 public:
  void append(Timestamp ts, double value);

  [[nodiscard]] std::uint32_t count() const { return count_; }
  [[nodiscard]] std::int64_t min_ts() const { return min_ts_; }
  [[nodiscard]] std::int64_t max_ts() const { return max_ts_; }
  [[nodiscard]] std::size_t size_bytes() const { return bits_.size_bytes(); }

  /// Freezes the current contents into an immutable chunk and resets the
  /// writer to empty. Returns nullptr when the writer holds no points.
  std::shared_ptr<const SealedChunk> seal();

  /// Copies the encoded bytes so a reader can decode a point-in-time
  /// snapshot of the open chunk without holding the shard lock during
  /// decode. Returns the point count of the snapshot.
  std::uint32_t snapshot(std::vector<std::uint8_t>& out) const;

  void clear();

 private:
  BitWriter bits_;
  std::uint32_t count_ = 0;
  std::int64_t min_ts_ = 0;
  std::int64_t max_ts_ = 0;
  std::int64_t prev_ts_ = 0;
  std::int64_t prev_delta_ = 0;
  double prev_value_ = 0.0;
  std::uint8_t window_lead_ = 0;   ///< XOR window: leading zeros
  std::uint8_t window_trail_ = 0;  ///< XOR window: trailing zeros
  bool window_valid_ = false;
};

/// Decode iterator over an encoded chunk stream.
class ChunkCursor {
 public:
  ChunkCursor(const std::uint8_t* data, std::size_t len, std::uint32_t count)
      : bits_(data, len), remaining_(count) {}

  explicit ChunkCursor(const SealedChunk& chunk)
      : ChunkCursor(chunk.bytes.data(), chunk.bytes.size(), chunk.count) {}

  /// Decodes up to `max` points into `ts` / `values`; returns how many
  /// it decoded (0 once the chunk is exhausted, or when `max` is 0).
  std::uint32_t read(std::int64_t* ts, double* values, std::uint32_t max);

  /// Decodes the next point; false when the chunk is exhausted.
  bool next(Timestamp& ts, double& value) { return read(&ts.ns, &value, 1) != 0; }

 private:
  BitReader bits_;
  std::uint32_t remaining_;
  bool first_ = true;
  std::int64_t prev_ts_ = 0;
  std::int64_t prev_delta_ = 0;
  std::uint64_t prev_bits_ = 0;  ///< previous value's bit pattern
  std::uint8_t window_lead_ = 0;
  std::uint8_t window_trail_ = 0;
  // The previous value's scaled integer, when it was decoded in scaled
  // mode at scale index scaled_k_ (else kNoScale).
  std::int64_t scaled_ = 0;
  unsigned scaled_k_ = kNoScale;
  static constexpr unsigned kNoScale = 3;
};

}  // namespace ruru
