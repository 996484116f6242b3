#include "geo/geo_db.hpp"

#include "geo/db_io.hpp"

namespace ruru {

namespace {

constexpr std::uint32_t kMagic = 0x4F454747;  // "GGEO"
constexpr std::uint32_t kVersion = 1;
// start + end + two empty length-prefixed strings + lat + lon.
constexpr std::size_t kMinRecordBytes = 4 + 4 + 4 + 4 + 8 + 8;

}  // namespace

Result<GeoDatabase> GeoDatabase::build(std::vector<GeoRecord> records) {
  auto index = Ipv4RangeIndex::build(records, "geo");
  if (!index) return make_error(index.error());
  GeoDatabase db;
  db.index_ = std::move(index).value();
  const std::size_t n = records.size();
  db.country_id_.reserve(n);
  db.city_id_.reserve(n);
  db.lat_.reserve(n);
  db.lon_.reserve(n);
  StringInterner& names = geo_names();
  for (const GeoRecord& r : records) {
    db.country_id_.push_back(names.intern(r.country));
    db.city_id_.push_back(names.intern(r.city));
    db.lat_.push_back(r.latitude);
    db.lon_.push_back(r.longitude);
  }
  return db;
}

GeoRecord GeoDatabase::record(std::size_t i) const {
  GeoRecord r;
  r.range_start = index_.start(i);
  r.range_end = index_.end(i);
  r.country = std::string(geo_names().view(country_id_[i]));
  r.city = std::string(geo_names().view(city_id_[i]));
  r.latitude = lat_[i];
  r.longitude = lon_[i];
  return r;
}

Status GeoDatabase::save(const std::string& path) const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + size() * 48);
  geo_io::put_u32(out, kMagic);
  geo_io::put_u32(out, kVersion);
  geo_io::put_u32(out, static_cast<std::uint32_t>(size()));
  for (std::size_t i = 0; i < size(); ++i) {
    geo_io::put_u32(out, index_.start(i));
    geo_io::put_u32(out, index_.end(i));
    geo_io::put_str(out, geo_names().view(country_id_[i]));
    geo_io::put_str(out, geo_names().view(city_id_[i]));
    geo_io::put_f64(out, lat_[i]);
    geo_io::put_f64(out, lon_[i]);
  }
  return geo_io::write_file(path, out, "geo");
}

Result<GeoDatabase> GeoDatabase::load(const std::string& path) {
  auto data = geo_io::read_file(path, "geo");
  if (!data) return make_error(data.error());
  geo_io::Cursor c{data.value().data(), data.value().data() + data.value().size()};
  if (c.u32() != kMagic || !c.ok) return make_error("geo: bad magic in '" + path + "'");
  if (c.u32() != kVersion || !c.ok) return make_error("geo: unsupported version");
  const std::uint32_t count = c.checked_count(kMinRecordBytes);
  if (!c.ok) return make_error("geo: record count exceeds file size in '" + path + "'");
  std::vector<GeoRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count && c.ok; ++i) {
    GeoRecord r;
    r.range_start = c.u32();
    r.range_end = c.u32();
    r.country = std::string(c.str());
    r.city = std::string(c.str());
    r.latitude = c.f64();
    r.longitude = c.f64();
    records.push_back(std::move(r));
  }
  if (!c.ok) return make_error("geo: truncated file");
  return build(std::move(records));
}

}  // namespace ruru
