#include "tsdb/wal.hpp"

#include <cstring>
#include <vector>

#include "tsdb/query.hpp"
#include "util/byte_order.hpp"
#include "util/crc32.hpp"

namespace ruru {

namespace {

constexpr std::size_t kHeaderBytes = 8;                      // len + crc
constexpr std::size_t kFixedTail = 16;                       // i64 + f64
constexpr std::size_t kMinPayload = 2 + 2 + kFixedTail;      // empty strings
constexpr std::size_t kMaxPayload = 2 + 0xFFFF + 2 + 0xFFFF + kFixedTail;

}  // namespace

Result<Wal> Wal::create(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return make_error("wal: cannot open '" + path + "'");
  return Wal(f);
}

Wal::Wal(Wal&& other) noexcept
    : file_(std::move(other.file_)),
      records_(other.records_.load(std::memory_order_relaxed)) {}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    file_ = std::move(other.file_);
    records_.store(other.records_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  return *this;
}

void Wal::append(std::string_view measurement, std::string_view canonical_tags, Timestamp time,
                 double value) {
  if (!file_) return;
  const std::size_t payload = 2 + measurement.size() + 2 + canonical_tags.size() + kFixedTail;
  std::vector<std::uint8_t> rec(kHeaderBytes + payload);
  std::uint8_t* p = rec.data() + kHeaderBytes;
  store_le16(p, static_cast<std::uint16_t>(measurement.size()));
  std::memcpy(p + 2, measurement.data(), measurement.size());
  p += 2 + measurement.size();
  store_le16(p, static_cast<std::uint16_t>(canonical_tags.size()));
  std::memcpy(p + 2, canonical_tags.data(), canonical_tags.size());
  p += 2 + canonical_tags.size();
  const auto t = static_cast<std::uint64_t>(time.ns);
  std::memcpy(p, &t, 8);
  std::memcpy(p + 8, &value, 8);

  store_le32(rec.data(), static_cast<std::uint32_t>(payload));
  store_le32(rec.data() + 4, crc32(rec.data() + kHeaderBytes, payload));
  // One fwrite per record: stdio locks the stream, so concurrent
  // appenders (engine shards) never interleave record bytes.
  std::fwrite(rec.data(), 1, rec.size(), file_.get());
  records_.fetch_add(1, std::memory_order_relaxed);
}

void Wal::sync() {
  if (file_) std::fflush(file_.get());
}

namespace {

/// Parses the canonical "k1=v1,k2=v2" form back into a TagSet.
TagSet parse_tags(std::string_view canon) {
  TagSet tags;
  std::size_t pos = 0;
  while (pos < canon.size()) {
    const std::size_t comma = canon.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? canon.size() : comma;
    const std::size_t eq = canon.find('=', pos);
    if (eq != std::string_view::npos && eq < end) {
      tags.add(std::string(canon.substr(pos, eq - pos)),
               std::string(canon.substr(eq + 1, end - eq - 1)));
    }
    pos = end + 1;
  }
  return tags;
}

}  // namespace

Result<std::uint64_t> Wal::replay(const std::string& path, TsdbEngine& db) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                    &std::fclose);
  if (!f) return make_error("wal: cannot open '" + path + "' for replay");

  std::uint64_t applied = 0;
  std::vector<std::uint8_t> payload;
  while (true) {
    std::uint8_t header[kHeaderBytes];
    if (std::fread(header, 1, kHeaderBytes, f.get()) != kHeaderBytes) break;  // EOF / torn
    const std::uint32_t len = load_le32(header);
    const std::uint32_t want_crc = load_le32(header + 4);
    if (len < kMinPayload || len > kMaxPayload) break;  // corrupt length
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f.get()) != len) break;  // torn
    if (crc32(payload.data(), len) != want_crc) break;              // corrupt

    const std::uint16_t mlen = load_le16(payload.data());
    if (std::size_t{2} + mlen + 2 > len) break;
    const std::uint16_t tlen = load_le16(payload.data() + 2 + mlen);
    if (std::size_t{2} + mlen + 2 + tlen + kFixedTail != len) break;  // inner disagreement

    const auto* m = reinterpret_cast<const char*>(payload.data() + 2);
    const auto* c = reinterpret_cast<const char*>(payload.data() + 2 + mlen + 2);
    std::uint64_t t;
    double value;
    std::memcpy(&t, payload.data() + len - kFixedTail, 8);
    std::memcpy(&value, payload.data() + len - 8, 8);
    db.write(std::string(m, mlen), parse_tags(std::string_view(c, tlen)),
             Timestamp{static_cast<std::int64_t>(t)}, value);
    ++applied;
  }
  return applied;
}

}  // namespace ruru
