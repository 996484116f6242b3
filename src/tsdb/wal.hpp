#pragma once
// Binary write-ahead log for the TSDB: long-term storage durability
// (InfluxDB's role of surviving restarts).  Append-only; replay rebuilds
// the exact in-memory state.
//
// Record layout (little-endian), one fwrite per record:
//   u32 payload_len | u32 crc32(payload) | payload
//   payload = u16 measurement_len | bytes | u16 tags_len |
//             canonical-tags bytes | i64 time_ns | f64 value
//
// Recovery contract: replay applies records until the first torn or
// corrupt one (short read, implausible length, CRC mismatch, or inner
// lengths that disagree with payload_len) and stops there — everything
// before the damage is applied, nothing after it.  A crash mid-append
// therefore loses at most the record being written.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <atomic>
#include <string>
#include <string_view>

#include "util/result.hpp"
#include "util/time.hpp"

namespace ruru {

class TsdbEngine;

class Wal {
 public:
  static Result<Wal> create(const std::string& path);

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;

  /// Primitive append: callers that already hold the canonical
  /// "k1=v1,..." tag form (the engine's series index does) pay no
  /// string building here.  Thread-safe: one buffered fwrite per record.
  void append(std::string_view measurement, std::string_view canonical_tags, Timestamp time,
              double value);

  /// Flush buffered records to the OS.
  void sync();

  [[nodiscard]] std::uint64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }

  /// Replays `path`. Returns records applied; recovery truncates at the
  /// first torn or corrupt record (crash semantics).
  static Result<std::uint64_t> replay(const std::string& path, TsdbEngine& db);

 private:
  explicit Wal(std::FILE* f) : file_(f, &std::fclose) {}
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  std::atomic<std::uint64_t> records_{0};
};

}  // namespace ruru
