#include "oracle/legacy_tsdb.hpp"

#include <algorithm>

namespace ruru {

void TimeSeriesDb::write(const std::string& measurement, const TagSet& tags, Timestamp time,
                         double value) {
  std::lock_guard lock(mu_);
  auto& series = data_[measurement][tags.canonical()];
  if (series.points.empty()) series.tags = tags;
  if (!series.points.empty() && time < series.points.back().time) series.sorted = false;
  series.points.push_back(DataPoint{time, value});
  ++points_;
}

void TimeSeriesDb::collect(const Series& s, Timestamp t0, Timestamp t1,
                           std::vector<double>& out) {
  if (s.sorted) {
    auto lo = std::lower_bound(s.points.begin(), s.points.end(), t0,
                               [](const DataPoint& p, Timestamp t) { return p.time < t; });
    for (auto it = lo; it != s.points.end() && it->time < t1; ++it) out.push_back(it->value);
  } else {
    for (const auto& p : s.points) {
      if (p.time >= t0 && p.time < t1) out.push_back(p.value);
    }
  }
}

AggregateResult TimeSeriesDb::summarize(std::vector<double>& values) {
  AggregateResult r;
  if (values.empty()) return r;
  std::sort(values.begin(), values.end());
  r.count = values.size();
  r.min = values.front();
  r.max = values.back();
  double sum = 0.0;
  for (const double v : values) sum += v;
  r.mean = sum / static_cast<double>(values.size());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    if (i + 1 < values.size()) return values[i] * (1.0 - frac) + values[i + 1] * frac;
    return values[i];
  };
  r.median = quantile(0.5);
  r.p95 = quantile(0.95);
  r.p99 = quantile(0.99);
  return r;
}

AggregateResult TimeSeriesDb::aggregate(const std::string& measurement, const TagSet& filter,
                                        Timestamp t0, Timestamp t1) const {
  std::vector<double> values;
  {
    std::lock_guard lock(mu_);
    const auto m = data_.find(measurement);
    if (m != data_.end()) {
      for (const auto& [key, series] : m->second) {
        if (series.tags.matches(filter)) collect(series, t0, t1, values);
      }
    }
  }
  return summarize(values);
}

std::vector<WindowResult> TimeSeriesDb::window_aggregate(const std::string& measurement,
                                                         const TagSet& filter, Timestamp t0,
                                                         Timestamp t1, Duration step) const {
  std::vector<WindowResult> out;
  if (step.ns <= 0) return out;
  const auto nwindows = static_cast<std::size_t>((t1.ns - t0.ns + step.ns - 1) / step.ns);
  std::vector<std::vector<double>> buckets(nwindows);
  {
    std::lock_guard lock(mu_);
    const auto m = data_.find(measurement);
    if (m != data_.end()) {
      for (const auto& [key, series] : m->second) {
        if (!series.tags.matches(filter)) continue;
        for (const auto& p : series.points) {
          if (p.time < t0 || p.time >= t1) continue;
          buckets[static_cast<std::size_t>((p.time.ns - t0.ns) / step.ns)].push_back(p.value);
        }
      }
    }
  }
  for (std::size_t i = 0; i < nwindows; ++i) {
    if (buckets[i].empty()) continue;
    WindowResult w;
    w.window_start = Timestamp{t0.ns + static_cast<std::int64_t>(i) * step.ns};
    w.stats = summarize(buckets[i]);
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<GroupResult> TimeSeriesDb::group_by(const std::string& measurement,
                                                const std::string& tag_key, const TagSet& filter,
                                                Timestamp t0, Timestamp t1) const {
  std::map<std::string, std::vector<double>> groups;
  {
    std::lock_guard lock(mu_);
    const auto m = data_.find(measurement);
    if (m != data_.end()) {
      for (const auto& [key, series] : m->second) {
        if (!series.tags.matches(filter)) continue;
        const auto v = series.tags.get(tag_key);
        if (!v) continue;
        collect(series, t0, t1, groups[*v]);
      }
    }
  }
  std::vector<GroupResult> out;
  out.reserve(groups.size());
  for (auto& [value, samples] : groups) {
    GroupResult g;
    g.tag_value = value;
    g.stats = summarize(samples);
    out.push_back(std::move(g));
  }
  return out;
}

std::size_t TimeSeriesDb::downsample(const std::string& src, const std::string& dst,
                                     Duration window, const std::string& stat) {
  if (window.ns <= 0 || src == dst) return 0;
  struct Out {
    TagSet tags;
    Timestamp time;
    double value;
  };
  std::vector<Out> pending;
  {
    std::lock_guard lock(mu_);
    const auto m = data_.find(src);
    if (m == data_.end()) return 0;
    for (const auto& [key, series] : m->second) {
      // Bucket this series' points by window index.
      std::map<std::int64_t, std::vector<double>> buckets;
      for (const auto& p : series.points) {
        const std::int64_t idx = p.time.ns >= 0
                                     ? p.time.ns / window.ns
                                     : (p.time.ns - window.ns + 1) / window.ns;
        buckets[idx].push_back(p.value);
      }
      for (auto& [idx, values] : buckets) {
        const AggregateResult r = summarize(values);
        double v = r.mean;
        if (stat == "median") v = r.median;
        else if (stat == "min") v = r.min;
        else if (stat == "max") v = r.max;
        else if (stat == "p99") v = r.p99;
        else if (stat == "count") v = static_cast<double>(r.count);
        pending.push_back(Out{series.tags, Timestamp{idx * window.ns}, v});
      }
    }
  }
  for (const auto& o : pending) write(dst, o.tags, o.time, o.value);
  return pending.size();
}

std::size_t TimeSeriesDb::enforce_retention(Timestamp now, Duration horizon,
                                            const std::vector<std::string>& only_measurements) {
  const Timestamp cutoff = now - horizon;
  std::size_t dropped = 0;
  std::lock_guard lock(mu_);
  for (auto& [name, series_map] : data_) {
    if (!only_measurements.empty() &&
        std::find(only_measurements.begin(), only_measurements.end(), name) ==
            only_measurements.end()) {
      continue;
    }
    for (auto it = series_map.begin(); it != series_map.end();) {
      auto& points = it->second.points;
      const std::size_t before = points.size();
      std::erase_if(points, [&](const DataPoint& p) { return p.time < cutoff; });
      dropped += before - points.size();
      if (points.empty()) {
        it = series_map.erase(it);
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

std::size_t TimeSeriesDb::series_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, series_map] : data_) n += series_map.size();
  return n;
}

std::uint64_t TimeSeriesDb::points_written() const {
  std::lock_guard lock(mu_);
  return points_;
}

}  // namespace ruru
