#include "tsdb/chunk.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace ruru {

namespace {

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

// Wrap-safe i64 subtraction (timestamps are arbitrary; the fuzz suite
// feeds INT64_MIN/MAX neighbours).
constexpr std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}

constexpr std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}

constexpr double kScales[3] = {1.0, 1e3, 1e6};
// llrint is exact and defined for |x| < 2^63; stay well inside, and
// inside the range where doubles still resolve the scaled integer.
constexpr double kScaledLimit = 9.0e15;

constexpr unsigned kDeltaWidths[4] = {10, 20, 30, 64};

/// True when `v` survives value -> round(v*scale) -> double round-trip
/// bit-for-bit (rejects NaN/inf, -0.0, and sub-scale dust).
bool scaled_exact(double v, double scale, std::int64_t& out) {
  if (!std::isfinite(v)) return false;
  const double scaled = v * scale;
  if (!(std::fabs(scaled) < kScaledLimit)) return false;
  const std::int64_t i = std::llrint(scaled);
  if (std::bit_cast<std::uint64_t>(static_cast<double>(i) / scale) !=
      std::bit_cast<std::uint64_t>(v)) {
    return false;
  }
  out = i;
  return true;
}

/// The reference point only needs a defined (not lossless) scaling: the
/// decoder recomputes the identical integer from the identical previous
/// value, so the delta cancels any rounding.
bool scaled_ref(double v, double scale, std::int64_t& out) {
  if (!std::isfinite(v)) return false;
  const double scaled = v * scale;
  if (!(std::fabs(scaled) < kScaledLimit)) return false;
  out = std::llrint(scaled);
  return true;
}

}  // namespace

void BitWriter::put(std::uint64_t bits, unsigned n) {
  while (n > 0) {
    if (free_bits_ == 0) {
      buf_.push_back(0);
      free_bits_ = 8;
    }
    const unsigned take = n < free_bits_ ? n : free_bits_;
    const unsigned shift = n - take;
    const std::uint64_t chunk = (shift < 64 ? bits >> shift : 0) & ((1ull << take) - 1);
    buf_.back() = static_cast<std::uint8_t>(buf_.back() |
                                            (chunk << (free_bits_ - take)));
    free_bits_ -= take;
    n -= take;
  }
}

void BitReader::refill_tail() {
  for (; count_ <= 56; count_ += 8) {
    if (next_ != end_) window_ |= static_cast<std::uint64_t>(*next_++) << (56 - count_);
  }
}

void ChunkWriter::append(Timestamp ts, double value) {
  const std::int64_t t = ts.ns;
  if (count_ == 0) {
    bits_.put(static_cast<std::uint64_t>(t), 64);
    bits_.put(std::bit_cast<std::uint64_t>(value), 64);
    min_ts_ = max_ts_ = t;
    prev_ts_ = t;
    prev_delta_ = 0;
    prev_value_ = value;
    window_valid_ = false;
    count_ = 1;
    return;
  }

  // Timestamp: delta-of-delta with width-bucketed zigzag.
  const std::int64_t delta = wrap_sub(t, prev_ts_);
  const std::int64_t dod = wrap_sub(delta, prev_delta_);
  if (dod == 0) {
    bits_.put(0, 1);
  } else {
    const std::uint64_t z = zigzag(dod);
    if (z < (1ull << 14)) {
      bits_.put(0b10, 2);
      bits_.put(z, 14);
    } else if (z < (1ull << 28)) {
      bits_.put(0b110, 3);
      bits_.put(z, 28);
    } else if (z < (1ull << 44)) {
      bits_.put(0b1110, 4);
      bits_.put(z, 44);
    } else {
      bits_.put(0b1111, 4);
      bits_.put(z, 64);
    }
  }
  prev_delta_ = delta;
  prev_ts_ = t;
  if (t < min_ts_) min_ts_ = t;
  if (t > max_ts_) max_ts_ = t;

  // Value.
  const std::uint64_t vbits = std::bit_cast<std::uint64_t>(value);
  const std::uint64_t pbits = std::bit_cast<std::uint64_t>(prev_value_);
  if (vbits == pbits) {
    bits_.put(0, 1);
  } else {
    // Scaled-integer mode: smallest power-of-1000 scale at which the new
    // value round-trips exactly and the previous value scales safely.
    bool done = false;
    for (unsigned k = 0; k < 3 && !done; ++k) {
      std::int64_t cur = 0;
      std::int64_t ref = 0;
      if (!scaled_exact(value, kScales[k], cur)) continue;
      if (!scaled_ref(prev_value_, kScales[k], ref)) continue;
      const std::uint64_t z = zigzag(wrap_sub(cur, ref));
      unsigned w = 3;
      for (unsigned i = 0; i < 3; ++i) {
        if (z < (1ull << kDeltaWidths[i])) {
          w = i;
          break;
        }
      }
      bits_.put(0b10, 2);
      bits_.put(k, 2);
      bits_.put(w, 2);
      bits_.put(z, kDeltaWidths[w]);
      done = true;
    }
    if (!done) {
      // Gorilla XOR fallback: exact for every bit pattern.
      const std::uint64_t x = vbits ^ pbits;  // non-zero here
      bits_.put(0b11, 2);
      unsigned lead = static_cast<unsigned>(std::countl_zero(x));
      const unsigned trail = static_cast<unsigned>(std::countr_zero(x));
      if (lead > 31) lead = 31;
      if (window_valid_ && lead >= window_lead_ && trail >= window_trail_) {
        bits_.put(0, 1);
        const unsigned mlen = 64 - window_lead_ - window_trail_;
        bits_.put(x >> window_trail_, mlen);
      } else {
        const unsigned mlen = 64 - lead - trail;
        bits_.put(1, 1);
        bits_.put(lead, 5);
        bits_.put(mlen - 1, 6);
        bits_.put(x >> trail, mlen);
        window_lead_ = static_cast<std::uint8_t>(lead);
        window_trail_ = static_cast<std::uint8_t>(trail);
        window_valid_ = true;
      }
    }
  }
  prev_value_ = value;
  ++count_;
}

std::shared_ptr<const SealedChunk> ChunkWriter::seal() {
  if (count_ == 0) return nullptr;
  auto chunk = std::make_shared<SealedChunk>();
  chunk->bytes = bits_.bytes();  // copy, then reset below
  chunk->count = count_;
  chunk->min_ts = min_ts_;
  chunk->max_ts = max_ts_;
  clear();
  return chunk;
}

std::uint32_t ChunkWriter::snapshot(std::vector<std::uint8_t>& out) const {
  out.assign(bits_.bytes().begin(), bits_.bytes().end());
  return count_;
}

void ChunkWriter::clear() {
  bits_.clear();
  count_ = 0;
  min_ts_ = max_ts_ = 0;
  prev_ts_ = prev_delta_ = 0;
  prev_value_ = 0.0;
  window_valid_ = false;
}

std::uint32_t ChunkCursor::read(std::int64_t* ts, double* values, std::uint32_t max) {
  const std::uint32_t n = max < remaining_ ? max : remaining_;
  if (n == 0) return 0;
  remaining_ -= n;

  // Decoder state lives in locals for the batch so it stays in registers.
  BitReader bits = bits_;
  std::int64_t prev_ts = prev_ts_;
  std::int64_t delta = prev_delta_;
  std::uint64_t prev = prev_bits_;
  unsigned lead = window_lead_;
  unsigned trail = window_trail_;
  std::int64_t scaled = scaled_;
  unsigned scaled_k = scaled_k_;
  std::uint32_t i = 0;
  if (first_) {
    first_ = false;
    prev_ts = static_cast<std::int64_t>(bits.get(64));
    prev = bits.get(64);
    delta = 0;
    scaled_k = kNoScale;
    ts[0] = prev_ts;
    values[0] = std::bit_cast<double>(prev);
    i = 1;
  }
  for (; i < n; ++i) {
    // Timestamp, by its first 4 bits.  Each branch reads a constant
    // width, so a predicted header costs no dependent table lookup.
    const auto dod = [&](unsigned header, unsigned width) {
      bits.skip(header);
      delta = wrap_add(delta, unzigzag(bits.get(width)));
    };
    const std::uint64_t stamp = bits.peek(4);
    if (stamp < 0b1000) {
      bits.skip(1);  // dod == 0
    } else if (stamp < 0b1100) {
      dod(2, 14);
    } else if (stamp < 0b1110) {
      dod(3, 28);
    } else if (stamp == 0b1110) {
      dod(4, 44);
    } else {
      dod(4, 64);
    }
    prev_ts = wrap_add(prev_ts, delta);
    ts[i] = prev_ts;

    // Value: '0' repeat | '10' k:2 w:2 delta | '110' bits | '111' lead:5 len:6 bits.
    const std::uint64_t head = bits.peek(14);
    if ((head >> 13) == 0) {
      bits.skip(1);
    } else if ((head >> 12) == 0b10) {
      const unsigned k = static_cast<unsigned>(head >> 10) & 3;
      const unsigned w = static_cast<unsigned>(head >> 8) & 3;
      bits.skip(6);
      // kDeltaWidths[w], one constant width per branch.
      const std::int64_t d = unzigzag(w == 2   ? bits.get(30)
                                      : w == 1 ? bits.get(20)
                                      : w == 0 ? bits.get(10)
                                               : bits.get(64));
      const unsigned ks = k < 3 ? k : 2;
      const double scale = kScales[ks];
      // The encoder's reference is llrint(prev * scale).  When prev was
      // itself encoded at this scale, that is the integer it encoded
      // then, so reusing it is exact and keeps the llrint and the
      // division off the point-to-point dependency.
      const std::int64_t ref =
          ks == scaled_k ? scaled : std::llrint(std::bit_cast<double>(prev) * scale);
      scaled = wrap_add(ref, d);
      prev = std::bit_cast<std::uint64_t>(static_cast<double>(scaled) / scale);
      scaled_k = ks;
    } else {
      if ((head >> 11) == 0b110) {
        bits.skip(3);
      } else {
        lead = static_cast<unsigned>(head >> 6) & 31;
        trail = 64 - lead - ((static_cast<unsigned>(head) & 63) + 1);
        bits.skip(14);
      }
      prev ^= bits.get(64 - lead - trail) << trail;
      scaled_k = kNoScale;
    }
    values[i] = std::bit_cast<double>(prev);
  }

  bits_ = bits;
  prev_ts_ = prev_ts;
  prev_delta_ = delta;
  prev_bits_ = prev;
  window_lead_ = static_cast<std::uint8_t>(lead);
  window_trail_ = static_cast<std::uint8_t>(trail);
  scaled_ = scaled;
  scaled_k_ = scaled_k;
  return n;
}

}  // namespace ruru
