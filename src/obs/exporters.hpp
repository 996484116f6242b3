#pragma once
// Pluggable snapshot exporters: where the telemetry goes.
//
// The SnapshotTimer fans each (snapshot, delta) pair out to every
// registered exporter.  Three ship in-tree, mirroring the paper's
// operational setup (InfluxDB + Grafana dashboards):
//  * PrometheusExporter — text exposition format, rewritten per
//    snapshot (node-exporter textfile-collector style);
//  * JsonLinesExporter — one JSON object per snapshot appended to a
//    stream, for ad-hoc scripting and the examples' --metrics flag;
//  * SelfIngestExporter — writes "ruru.self.*" series into the
//    pipeline's own TSDB engine, so dashboards chart pipeline health
//    (drop rates, queue depths, stage latencies) next to the traffic
//    latency the pipeline exists to measure.
//
// Exporters run on the snapshot thread only; implementations need no
// internal locking unless they share state with other threads.

#include <iosfwd>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "tsdb/query.hpp"

namespace ruru::obs {

class MetricsExporter {
 public:
  virtual ~MetricsExporter() = default;
  virtual void export_snapshot(const MetricsSnapshot& snap, const SnapshotDelta& delta) = 0;
  /// Called when the snapshot stream ends (timer shutdown, final
  /// snapshot written).  Exporters holding buffered output push it to
  /// its destination here; the default is a no-op for exporters that
  /// write through on every snapshot.
  virtual void flush() {}
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Escapes a Prometheus label value per the exposition format: backslash
/// -> '\\', newline -> '\n', double-quote -> '\"'.  Everything else
/// passes through untouched.
[[nodiscard]] std::string escape_label_value(std::string_view value);

/// Renders a snapshot in Prometheus text exposition format.  Metric
/// names are sanitized ("nic.rx_packets" -> "ruru_nic_rx_packets");
/// histograms render as summaries (quantile labels + _sum/_count).
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snap);

/// Renders a snapshot as one JSON object (single line, no trailing
/// newline): {"ts_s":..., "interval_s":..., "counters":{name:{"total":..,
/// "rate":..}}, "gauges":{...}, "histograms":{name:{"count":..,...}}}.
[[nodiscard]] std::string render_json_line(const MetricsSnapshot& snap,
                                           const SnapshotDelta& delta);

/// Rewrites the full exposition into a stream (seek-to-start when the
/// stream supports it) or a file each snapshot.
class PrometheusExporter final : public MetricsExporter {
 public:
  /// Writes to `out` (not owned; appends a fresh exposition per
  /// snapshot, separated by a blank line).
  explicit PrometheusExporter(std::ostream& out);
  /// Rewrites `path` atomically per snapshot (write `path`.tmp, then
  /// rename it over `path`).
  explicit PrometheusExporter(std::string path);

  void export_snapshot(const MetricsSnapshot& snap, const SnapshotDelta& delta) override;
  [[nodiscard]] std::string_view name() const override { return "prometheus"; }

 private:
  std::ostream* out_ = nullptr;
  std::string path_;
};

/// Appends one JSON line per snapshot.
class JsonLinesExporter final : public MetricsExporter {
 public:
  explicit JsonLinesExporter(std::ostream& out);
  explicit JsonLinesExporter(std::string path);

  void export_snapshot(const MetricsSnapshot& snap, const SnapshotDelta& delta) override;
  /// Syncs the destination stream (or is a no-op for the file form,
  /// which opens/closes per line and is already durable).
  void flush() override;
  [[nodiscard]] std::string_view name() const override { return "jsonl"; }

 private:
  std::ostream* out_ = nullptr;
  std::string path_;
};

/// Dogfoods pipeline health into the TSDB as "ruru.self.<metric>"
/// measurements: counters write stat=total and stat=rate points, gauges
/// stat=value, histograms stat=p50/p95/p99/mean plus stat=rate (interval
/// event rate).  `db` must outlive the exporter.
class SelfIngestExporter final : public MetricsExporter {
 public:
  explicit SelfIngestExporter(TsdbEngine& db);

  void export_snapshot(const MetricsSnapshot& snap, const SnapshotDelta& delta) override;
  [[nodiscard]] std::string_view name() const override { return "self-ingest"; }

  static constexpr std::string_view kPrefix = "ruru.self.";

 private:
  TsdbEngine& db_;
};

}  // namespace ruru::obs
