#include "geo/as_db.hpp"

#include "geo/db_io.hpp"

namespace ruru {

namespace {

constexpr std::uint32_t kMagic = 0x31534147;  // "GAS1"
// start + end + asn + empty length-prefixed org string.
constexpr std::size_t kMinRecordBytes = 4 + 4 + 4 + 4;

}  // namespace

Result<AsDatabase> AsDatabase::build(std::vector<AsRecord> records) {
  auto index = Ipv4RangeIndex::build(records, "asdb");
  if (!index) return make_error(index.error());
  AsDatabase db;
  db.index_ = std::move(index).value();
  const std::size_t n = records.size();
  db.asn_.reserve(n);
  db.org_id_.reserve(n);
  StringInterner& names = geo_names();
  for (const AsRecord& r : records) {
    db.asn_.push_back(r.asn);
    db.org_id_.push_back(names.intern(r.organization));
  }
  return db;
}

AsRecord AsDatabase::record(std::size_t i) const {
  AsRecord r;
  r.range_start = index_.start(i);
  r.range_end = index_.end(i);
  r.asn = asn_[i];
  r.organization = std::string(geo_names().view(org_id_[i]));
  return r;
}

Status AsDatabase::save(const std::string& path) const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + size() * 32);
  geo_io::put_u32(out, kMagic);
  geo_io::put_u32(out, static_cast<std::uint32_t>(size()));
  for (std::size_t i = 0; i < size(); ++i) {
    geo_io::put_u32(out, index_.start(i));
    geo_io::put_u32(out, index_.end(i));
    geo_io::put_u32(out, asn_[i]);
    geo_io::put_str(out, geo_names().view(org_id_[i]));
  }
  return geo_io::write_file(path, out, "asdb");
}

Result<AsDatabase> AsDatabase::load(const std::string& path) {
  auto data = geo_io::read_file(path, "asdb");
  if (!data) return make_error(data.error());
  geo_io::Cursor c{data.value().data(), data.value().data() + data.value().size()};
  if (c.u32() != kMagic || !c.ok) return make_error("asdb: bad magic");
  const std::uint32_t count = c.checked_count(kMinRecordBytes);
  if (!c.ok) return make_error("asdb: record count exceeds file size in '" + path + "'");
  std::vector<AsRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count && c.ok; ++i) {
    AsRecord r;
    r.range_start = c.u32();
    r.range_end = c.u32();
    r.asn = c.u32();
    r.organization = std::string(c.str());
    records.push_back(std::move(r));
  }
  if (!c.ok) return make_error("asdb: truncated file");
  return build(std::move(records));
}

}  // namespace ruru
