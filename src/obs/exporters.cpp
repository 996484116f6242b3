#include "obs/exporters.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace ruru::obs {

namespace {

/// "nic.rx_packets" -> "ruru_nic_rx_packets" (Prometheus name charset
/// is [a-zA-Z0-9_:]; anything else becomes '_').
std::string prometheus_name(std::string_view name) {
  std::string out = "ruru_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '"': out += "\\\""; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " ";
    append_double(out, value);
    out += "\n";
  }
  for (const auto& [name, stats] : snap.histograms) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " summary\n";
    for (const auto& [label, q] : {std::pair<const char*, double>{"0.5", 0.5},
                                   {"0.95", 0.95},
                                   {"0.99", 0.99}}) {
      out += p + "{quantile=\"" + escape_label_value(label) + "\"} " +
             std::to_string(stats.percentile(q)) + "\n";
    }
    out += p + "_sum " + std::to_string(stats.sum) + "\n";
    out += p + "_count " + std::to_string(stats.count) + "\n";
  }
  return out;
}

std::string render_json_line(const MetricsSnapshot& snap, const SnapshotDelta& delta) {
  JsonWriter w;
  w.begin_object();
  w.key("ts_s").value(snap.taken_at.to_sec());
  w.key("interval_s").value(delta.interval_s);
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.key(name).begin_object();
    w.key("total").value(value);
    if (const MetricRate* r = delta.counter(name)) w.key("rate").value(r->per_sec);
    w.end_object();
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) w.key(name).value(value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, stats] : snap.histograms) {
    w.key(name).begin_object();
    w.key("count").value(stats.count);
    w.key("min_ns").value(stats.min);
    w.key("max_ns").value(stats.max);
    w.key("mean_ns").value(stats.mean());
    w.key("p50_ns").value(stats.percentile(0.5));
    w.key("p95_ns").value(stats.percentile(0.95));
    w.key("p99_ns").value(stats.percentile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

// --- PrometheusExporter ---

PrometheusExporter::PrometheusExporter(std::ostream& out) : out_(&out) {}
PrometheusExporter::PrometheusExporter(std::string path) : path_(std::move(path)) {}

void PrometheusExporter::export_snapshot(const MetricsSnapshot& snap,
                                         const SnapshotDelta& /*delta*/) {
  const std::string text = render_prometheus(snap);
  if (out_ != nullptr) {
    (*out_) << text << "\n";
    out_->flush();
    return;
  }
  // Write a sibling, then rename it over the path: a collector reading
  // the file sees the previous exposition or this one, never a torn one.
  const std::string tmp = path_ + ".tmp";
  std::ofstream f(tmp, std::ios::trunc);
  f << text;
  f.close();  // flushes; a failed open, write or close sets failbit
  if (f.fail() || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    RURU_LOG_EVERY_N(kWarn, "obs", 60) << "cannot write prometheus file '" << path_ << "'";
  }
}

// --- JsonLinesExporter ---

JsonLinesExporter::JsonLinesExporter(std::ostream& out) : out_(&out) {}
JsonLinesExporter::JsonLinesExporter(std::string path) : path_(std::move(path)) {}

void JsonLinesExporter::export_snapshot(const MetricsSnapshot& snap,
                                        const SnapshotDelta& delta) {
  const std::string line = render_json_line(snap, delta);
  if (out_ != nullptr) {
    (*out_) << line << "\n";
    out_->flush();
    return;
  }
  std::ofstream f(path_, std::ios::app);
  if (!f) {
    RURU_LOG_EVERY_N(kWarn, "obs", 60) << "cannot append metrics json to '" << path_ << "'";
    return;
  }
  f << line << "\n";
}

void JsonLinesExporter::flush() {
  if (out_ != nullptr) out_->flush();
  // The file form opens, writes and closes per snapshot; every line is
  // already on disk by the time flush() runs.
}

// --- SelfIngestExporter ---

SelfIngestExporter::SelfIngestExporter(TsdbEngine& db) : db_(db) {}

void SelfIngestExporter::export_snapshot(const MetricsSnapshot& snap,
                                         const SnapshotDelta& delta) {
  const Timestamp t = snap.taken_at;
  const auto measurement = [](std::string_view name) {
    return std::string(kPrefix) + std::string(name);
  };
  const auto tagged = [](const char* stat) { return TagSet{}.add("stat", stat); };

  for (const auto& [name, value] : snap.counters) {
    db_.write(measurement(name), tagged("total"), t, static_cast<double>(value));
    if (const MetricRate* r = delta.counter(name)) {
      db_.write(measurement(name), tagged("rate"), t, r->per_sec);
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    db_.write(measurement(name), tagged("value"), t, value);
  }
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, stats] = snap.histograms[i];
    const std::string m = measurement(name);
    db_.write(m, tagged("count"), t, static_cast<double>(stats.count));
    db_.write(m, tagged("mean"), t, stats.mean());
    db_.write(m, tagged("p50"), t, static_cast<double>(stats.percentile(0.5)));
    db_.write(m, tagged("p95"), t, static_cast<double>(stats.percentile(0.95)));
    db_.write(m, tagged("p99"), t, static_cast<double>(stats.percentile(0.99)));
    if (i < delta.histogram_counts.size() && delta.histogram_counts[i].name == name) {
      db_.write(m, tagged("rate"), t, delta.histogram_counts[i].per_sec);
    }
  }
}

}  // namespace ruru::obs
