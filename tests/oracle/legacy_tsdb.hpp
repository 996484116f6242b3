#pragma once
// TimeSeriesDb: the original uncompressed tagged store, kept only as a
// test oracle for TsdbEngine (tsdb/query.hpp).
//
// Every series is a std::vector of (time, value) points under one mutex
// and a measurement -> canonical-tags -> series std::map.  Queries
// collect matching values and summarize() them, so the answers are
// easy to trust; the parity suite requires the compressed engine to
// reproduce them bit for bit.  Test binaries and bench_tsdb's legacy
// arm link this library; the pipeline does not.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tsdb/tsdb.hpp"
#include "util/time.hpp"

namespace ruru {

class TimeSeriesDb {
 public:
  TimeSeriesDb() = default;

  void write(const std::string& measurement, const TagSet& tags, Timestamp time, double value);

  /// Stats over [t0, t1) for points whose tags match `filter`.
  [[nodiscard]] AggregateResult aggregate(const std::string& measurement, const TagSet& filter,
                                          Timestamp t0, Timestamp t1) const;

  /// Fixed-width windows over [t0, t1); empty windows are omitted.
  [[nodiscard]] std::vector<WindowResult> window_aggregate(const std::string& measurement,
                                                           const TagSet& filter, Timestamp t0,
                                                           Timestamp t1, Duration step) const;

  /// Group matching series by the value of `tag_key` ("indexing data on
  /// geo-location and AS information").
  [[nodiscard]] std::vector<GroupResult> group_by(const std::string& measurement,
                                                  const std::string& tag_key,
                                                  const TagSet& filter, Timestamp t0,
                                                  Timestamp t1) const;

  /// Drops all points older than `horizon` before `now`. Returns points
  /// dropped. When `only_measurements` is non-empty, other measurements
  /// are untouched (the keep-downsampled-drop-raw pattern).
  std::size_t enforce_retention(Timestamp now, Duration horizon,
                                const std::vector<std::string>& only_measurements = {});

  /// Continuous-query role: aggregates `src` into `window`-wide buckets
  /// per series (tags preserved) and writes `stat` ("mean"|"median"|
  /// "min"|"max"|"count"|"p99") of each bucket into measurement `dst`
  /// at the bucket start time. Returns points written.
  std::size_t downsample(const std::string& src, const std::string& dst, Duration window,
                         const std::string& stat = "mean");

  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] std::uint64_t points_written() const;

 private:
  struct DataPoint {
    Timestamp time;
    double value = 0.0;
  };

  struct Series {
    TagSet tags;
    std::vector<DataPoint> points;  // append-mostly, time-ordered-ish
    bool sorted = true;
  };

  static void collect(const Series& s, Timestamp t0, Timestamp t1, std::vector<double>& out);
  static AggregateResult summarize(std::vector<double>& values);

  mutable std::mutex mu_;
  // measurement -> canonical tags -> series
  std::map<std::string, std::map<std::string, Series>> data_;
  std::uint64_t points_ = 0;
};

}  // namespace ruru
