#include "core/config_file.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

namespace ruru {

namespace {

std::string trim(std::string s) {
  const auto first = s.find_first_not_of(" \t\r");
  const auto last = s.find_last_not_of(" \t\r");
  if (first == std::string::npos) return {};
  return s.substr(first, last - first + 1);
}

/// Unsigned decimal in [0, max] (max >= 9); refuses anything larger
/// instead of wrapping or narrowing.
Result<std::uint64_t> parse_u64(const std::string& key, const std::string& value,
                                std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (value.empty()) return make_error("config: empty value for '" + key + "'");
  std::uint64_t out = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      return make_error("config: '" + key + "' expects an unsigned integer, got '" + value + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out > (max - digit) / 10) {
      return make_error("config: '" + key + "' must be <= " + std::to_string(max) + ", got '" +
                        value + "'");
    }
    out = out * 10 + digit;
  }
  return out;
}

Result<double> parse_f64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return make_error("config: '" + key + "' expects a number, got '" + value + "'");
  }
  return v;
}

Result<bool> parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") return true;
  if (value == "false" || value == "0" || value == "no" || value == "off") return false;
  return make_error("config: '" + key + "' expects a boolean, got '" + value + "'");
}

/// Comma-separated CPU list, e.g. "0,1,2,3" or "0,1,-1,3" (-1 = leave
/// that slot unpinned).
Result<std::vector<int>> parse_cpu_list(const std::string& key, const std::string& value) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item =
        trim(value.substr(pos, comma == std::string::npos ? comma : comma - pos));
    pos = comma == std::string::npos ? value.size() + 1 : comma + 1;
    if (item.empty()) {
      return make_error("config: '" + key + "' has an empty entry in '" + value + "'");
    }
    if (item == "-1") {
      out.push_back(-1);
      continue;
    }
    auto v = parse_u64(key, item);
    if (!v) return make_error(v.error());
    if (v.value() > 1'000'000) {
      return make_error("config: '" + key + "' CPU id out of range: '" + item + "'");
    }
    out.push_back(static_cast<int>(v.value()));
  }
  return out;
}

}  // namespace

Result<std::map<std::string, std::string>> parse_config_text(const std::string& text) {
  std::map<std::string, std::string> out;
  std::string section;
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line = trim(text.substr(pos, nl == std::string::npos ? nl : nl - pos));
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = trim(line.substr(0, hash));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return make_error("config: unterminated section header at line " +
                          std::to_string(line_no));
      }
      section = trim(line.substr(1, line.size() - 2));
      if (section.empty()) {
        return make_error("config: empty section name at line " + std::to_string(line_no));
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return make_error("config: expected 'key = value' at line " + std::to_string(line_no) +
                        ": '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return make_error("config: empty key at line " + std::to_string(line_no));
    }
    const std::string full_key = section.empty() ? key : section + "." + key;
    if (out.count(full_key) != 0) {
      return make_error("config: duplicate key '" + full_key + "' at line " +
                        std::to_string(line_no));
    }
    out[full_key] = value;
  }
  return out;
}

Result<PipelineConfig> pipeline_config_from_text(const std::string& text,
                                                 PipelineConfig defaults) {
  auto parsed = parse_config_text(text);
  if (!parsed) return make_error(parsed.error());

  PipelineConfig cfg = defaults;
  for (const auto& [key, value] : parsed.value()) {
    auto set_u64 = [&](auto& field) -> Status {
      using Field = std::remove_reference_t<decltype(field)>;
      auto v = parse_u64(key, value, std::numeric_limits<Field>::max());
      if (!v) return make_error(v.error());
      field = static_cast<Field>(v.value());
      return {};
    };
    auto set_bool = [&](bool& field) -> Status {
      auto v = parse_bool(key, value);
      if (!v) return make_error(v.error());
      field = v.value();
      return {};
    };
    // `positive`: the key is a window or period the pipeline divides
    // by or ages against, so zero, negative and sub-nanosecond values
    // are refused.
    auto set_seconds = [&](Duration& field, bool positive = false) -> Status {
      auto v = parse_f64(key, value);
      if (!v) return make_error(v.error());
      // Keeps the nanosecond count inside int64 (and refuses NaN/inf).
      if (!(std::abs(v.value()) < 9e9)) {
        return make_error("config: '" + key + "' is out of range, got '" + value + "'");
      }
      const Duration d = Duration::from_sec(v.value());
      if (positive && d.ns <= 0) {
        return make_error("config: '" + key + "' must be > 0, got '" + value + "'");
      }
      field = d;
      return {};
    };

    Status status;
    if (key == "capture.queues") {
      status = set_u64(cfg.num_queues);
    } else if (key == "capture.queue_depth") {
      status = set_u64(cfg.queue_depth);
    } else if (key == "capture.mempool") {
      status = set_u64(cfg.mempool_size);
    } else if (key == "capture.mbuf_size") {
      status = set_u64(cfg.mbuf_size);
    } else if (key == "flow.fast_path") {
      status = set_bool(cfg.worker_fast_path);
    } else if (key == "flow.table_capacity") {
      status = set_u64(cfg.flow_table_capacity);
    } else if (key == "flow.stale_after_s") {
      status = set_seconds(cfg.flow_stale_after, /*positive=*/true);
    } else if (key == "flow.probe_window") {
      status = set_u64(cfg.flow_probe_window);
    } else if (key == "flow.inflow_rtt") {
      status = set_bool(cfg.inflow_rtt);
    } else if (key == "flow.ts_ring_entries") {
      status = set_u64(cfg.ts_ring_entries);
    } else if (key == "flow.inflow_min_interval_us") {
      status = set_u64(cfg.inflow_min_interval_us);
    } else if (key == "flow.prefetch_depth") {
      status = set_u64(cfg.worker_prefetch_depth);
    } else if (key == "flow.vector_loop") {
      status = set_bool(cfg.worker_vector_loop);
    } else if (key == "bus.hwm") {
      status = set_u64(cfg.bus_hwm);
    } else if (key == "bus.batch") {
      status = set_u64(cfg.bus_batch_size);
    } else if (key == "bus.batch_linger_s") {
      status = set_seconds(cfg.bus_batch_linger);
    } else if (key == "analytics.threads") {
      status = set_u64(cfg.enrichment_threads);
    } else if (key == "topology.pin_cpus") {
      auto v = parse_cpu_list(key, value);
      if (!v) {
        status = make_error(v.error());
      } else {
        cfg.pin_cpus = std::move(v.value());
      }
    } else if (key == "storage.downsample_window_s") {
      status = set_seconds(cfg.downsample_window);
    } else if (key == "storage.downsample_stat") {
      if (value == "mean" || value == "median" || value == "min" || value == "max" ||
          value == "p99" || value == "count") {
        cfg.downsample_stat = value;
      } else {
        status = make_error("config: unknown downsample stat '" + value + "'");
      }
    } else if (key == "storage.retention_s") {
      status = set_seconds(cfg.retention_horizon);
    } else if (key == "storage.tsdb_shards") {
      status = set_u64(cfg.tsdb_shards);
    } else if (key == "storage.tsdb_chunk_points") {
      status = set_u64(cfg.tsdb_chunk_points);
    } else if (key == "meter.window_s") {
      status = set_seconds(cfg.link_meter_window, /*positive=*/true);
    } else if (key == "detectors.synflood") {
      status = set_bool(cfg.enable_synflood);
    } else if (key == "detectors.synflood_min_syns") {
      status = set_u64(cfg.synflood.min_syns);
    } else if (key == "detectors.synflood_window_s") {
      status = set_seconds(cfg.synflood.window, /*positive=*/true);
    } else if (key == "detectors.conncount") {
      status = set_bool(cfg.enable_conncount);
    } else if (key == "detectors.ewma") {
      status = set_bool(cfg.enable_ewma);
    } else if (key == "detectors.ewma_k_sigma") {
      auto v = parse_f64(key, value);
      if (!v) {
        status = make_error(v.error());
      } else {
        cfg.ewma.k_sigma = v.value();
      }
    } else if (key == "detectors.periodic") {
      status = set_bool(cfg.enable_periodic);
    } else if (key == "detectors.periodic_period_s") {
      status = set_seconds(cfg.periodic.period, /*positive=*/true);
    } else if (key == "detectors.periodic_bucket_s") {
      status = set_seconds(cfg.periodic.bucket, /*positive=*/true);
    } else if (key == "obs.enabled") {
      status = set_bool(cfg.metrics_enabled);
    } else if (key == "obs.interval_s") {
      status = set_seconds(cfg.metrics_interval);
    } else if (key == "obs.transit_sample_every") {
      status = set_u64(cfg.transit_sample_every);
    } else if (key == "obs.self_ingest") {
      status = set_bool(cfg.metrics_self_ingest);
    } else if (key == "obs.prometheus_path") {
      cfg.metrics_prometheus_path = value;
    } else if (key == "obs.json_path") {
      cfg.metrics_json_path = value;
    } else if (key == "obs.trace_sample_n") {
      status = set_u64(cfg.trace_sample_n);
    } else if (key == "obs.trace_ring") {
      status = set_u64(cfg.trace_ring_capacity);
    } else if (key == "obs.trace_json_path") {
      cfg.trace_json_path = value;
    } else if (key == "obs.watchdog") {
      status = set_bool(cfg.watchdog_enabled);
    } else if (key == "obs.watchdog_interval_s") {
      status = set_seconds(cfg.watchdog_interval);
    } else if (key == "obs.watchdog_stall_s") {
      status = set_seconds(cfg.watchdog_stall_after);
    } else {
      return make_error("config: unknown key '" + key + "'");
    }
    if (!status.ok()) return make_error(status.error());
  }

  if (cfg.num_queues == 0) return make_error("config: capture.queues must be >= 1");
  {
    const std::size_t w = cfg.flow_probe_window;
    if (w < 16 || (w & (w - 1)) != 0) {
      return make_error(
          "config: flow.probe_window must be a power of two >= 16 "
          "(whole 16-slot probe groups), got " +
          std::to_string(w));
    }
    // The table rounds its capacity up to a power of two (minimum one
    // group); a window beyond that would probe the same groups twice.
    std::size_t rounded_capacity = 16;
    while (rounded_capacity < cfg.flow_table_capacity) rounded_capacity <<= 1;
    if (w > rounded_capacity) {
      return make_error("config: flow.probe_window (" + std::to_string(w) +
                        ") exceeds flow.table_capacity (" +
                        std::to_string(cfg.flow_table_capacity) + ", rounded to " +
                        std::to_string(rounded_capacity) + ")");
    }
  }
  {
    // The per-flow timestamp ring is indexed with a power-of-two mask;
    // its storage is cap * 2 * entries, so keep entries small.
    const std::size_t e = cfg.ts_ring_entries;
    if (e < 2 || e > 64 || (e & (e - 1)) != 0) {
      return make_error(
          "config: flow.ts_ring_entries must be a power of two in [2, 64], got " +
          std::to_string(e));
    }
  }
  if (cfg.inflow_min_interval_us > 60'000'000) {
    return make_error("config: flow.inflow_min_interval_us must be <= 60000000 (one minute), got " +
                      std::to_string(cfg.inflow_min_interval_us));
  }
  if (cfg.worker_prefetch_depth > 4) {
    return make_error("config: flow.prefetch_depth must be in [0, 4], got " +
                      std::to_string(cfg.worker_prefetch_depth));
  }
  if (cfg.enrichment_threads == 0) return make_error("config: analytics.threads must be >= 1");
  if (!cfg.pin_cpus.empty() && cfg.pin_cpus.size() != cfg.num_queues &&
      cfg.pin_cpus.size() != cfg.num_queues + cfg.enrichment_threads) {
    return make_error("config: topology.pin_cpus must list one CPU per worker (" +
                      std::to_string(cfg.num_queues) + ") or per worker + enricher (" +
                      std::to_string(cfg.num_queues + cfg.enrichment_threads) + "), got " +
                      std::to_string(cfg.pin_cpus.size()));
  }
  if (cfg.bus_batch_size == 0) return make_error("config: bus.batch must be >= 1");
  if (cfg.tsdb_shards == 0 || cfg.tsdb_shards > 256) {
    return make_error("config: storage.tsdb_shards must be in [1, 256]");
  }
  if (cfg.tsdb_chunk_points == 0) {
    return make_error("config: storage.tsdb_chunk_points must be >= 1");
  }
  if (cfg.metrics_enabled && cfg.metrics_interval.ns <= 0) {
    return make_error("config: obs.interval_s must be > 0");
  }
  if (cfg.trace_sample_n != 0 && cfg.trace_ring_capacity == 0) {
    return make_error("config: obs.trace_ring must be >= 1 when tracing is enabled");
  }
  if (cfg.watchdog_enabled) {
    if (cfg.watchdog_interval.ns <= 0) {
      return make_error("config: obs.watchdog_interval_s must be > 0");
    }
    if (cfg.watchdog_stall_after.ns <= 0) {
      return make_error("config: obs.watchdog_stall_s must be > 0");
    }
  }
  return cfg;
}

Result<PipelineConfig> pipeline_config_from_file(const std::string& path,
                                                 PipelineConfig defaults) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                    &std::fclose);
  if (!f) return make_error("config: cannot open '" + path + "'");
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) text.append(buf, n);
  return pipeline_config_from_text(text, defaults);
}

}  // namespace ruru
