#include "obs/exporters.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "tsdb/query.hpp"

namespace ruru::obs {
namespace {

/// A registry with one of each metric kind and fully determined values:
/// the histogram holds a single sample so every quantile is exact.
MetricsSnapshot golden_snapshot() {
  MetricsRegistry reg;
  reg.register_counter_fn("nic.rx_packets", [] { return std::uint64_t{1234}; });
  reg.register_gauge_fn("bus.pending", [] { return 17.5; });
  reg.histogram("enrich.batch_ns").record(std::int64_t{1000});
  return reg.snapshot(Timestamp::from_sec(42.0));
}

TEST(PrometheusRenderTest, GoldenExposition) {
  const std::string text = render_prometheus(golden_snapshot());
  const std::string expected =
      "# TYPE ruru_nic_rx_packets counter\n"
      "ruru_nic_rx_packets 1234\n"
      "# TYPE ruru_bus_pending gauge\n"
      "ruru_bus_pending 17.5\n"
      "# TYPE ruru_enrich_batch_ns summary\n"
      "ruru_enrich_batch_ns{quantile=\"0.5\"} 1000\n"
      "ruru_enrich_batch_ns{quantile=\"0.95\"} 1000\n"
      "ruru_enrich_batch_ns{quantile=\"0.99\"} 1000\n"
      "ruru_enrich_batch_ns_sum 1000\n"
      "ruru_enrich_batch_ns_count 1\n";
  EXPECT_EQ(text, expected);
}

TEST(PrometheusRenderTest, SanitizesMetricNames) {
  MetricsRegistry reg;
  reg.register_counter_fn("nic.queue-0/drops", [] { return std::uint64_t{1}; });
  const std::string text = render_prometheus(reg.snapshot(Timestamp{}));
  EXPECT_NE(text.find("ruru_nic_queue_0_drops 1\n"), std::string::npos);
}

TEST(PrometheusRenderTest, EscapesLabelValues) {
  // Per the exposition format, label values escape backslash, newline
  // and double-quote — in that order, so the backslash introduced by
  // the latter two is not itself re-escaped.
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("\\\n\""), "\\\\\\n\\\"");
  EXPECT_EQ(escape_label_value(""), "");
}

TEST(PrometheusExporterTest, StreamVariantAppendsExpositionPerSnapshot) {
  std::ostringstream out;
  PrometheusExporter exporter(out);
  const MetricsSnapshot snap = golden_snapshot();
  const SnapshotDelta delta = SnapshotDelta::between(snap, snap);
  exporter.export_snapshot(snap, delta);
  exporter.export_snapshot(snap, delta);
  const std::string s = out.str();
  // Two full expositions, blank-line separated.
  EXPECT_NE(s.find("ruru_nic_rx_packets 1234\n"), std::string::npos);
  EXPECT_NE(s.find("ruru_nic_rx_packets 1234\n", s.find("ruru_nic_rx_packets 1234\n") + 1),
            std::string::npos);
}

TEST(PrometheusExporterTest, FileVariantHoldsExactlyTheLastExposition) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("ruru_prom_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "ruru.prom").string();
  MetricsRegistry reg;
  std::uint64_t pkts = 1000;
  reg.register_counter_fn("pkts", [&pkts] { return pkts; });
  PrometheusExporter exporter(path);

  const auto read_all = [](std::ifstream& in) {
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };

  const MetricsSnapshot s1 = reg.snapshot(Timestamp::from_sec(1.0));
  exporter.export_snapshot(s1, SnapshotDelta::between(s1, s1));
  // A collector that opened the file before the next tick still reads
  // the whole first exposition: the rewrite replaces the file, it does
  // not truncate it under the reader.
  std::ifstream early(path);
  pkts = 7;
  const MetricsSnapshot s2 = reg.snapshot(Timestamp::from_sec(2.0));
  exporter.export_snapshot(s2, SnapshotDelta::between(s1, s2));

  EXPECT_EQ(read_all(early), render_prometheus(s1));
  std::ifstream late(path);
  EXPECT_EQ(read_all(late), render_prometheus(s2));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // An unwritable path is logged, never fatal, and leaves no file behind.
  const std::string missing = (dir / "no_such_dir" / "ruru.prom").string();
  PrometheusExporter broken(missing);
  broken.export_snapshot(s2, SnapshotDelta::between(s1, s2));
  EXPECT_FALSE(std::filesystem::exists(missing));
  EXPECT_FALSE(std::filesystem::exists(missing + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(JsonLinesTest, LineCarriesTotalsRatesAndHistogramStats) {
  MetricsRegistry reg;
  std::uint64_t pkts = 100;
  reg.register_counter_fn("pkts", [&pkts] { return pkts; });
  const MetricsSnapshot s1 = reg.snapshot(Timestamp::from_sec(1.0));
  pkts += 50;
  const MetricsSnapshot s2 = reg.snapshot(Timestamp::from_sec(2.0));
  const std::string line = render_json_line(s2, SnapshotDelta::between(s1, s2));
  EXPECT_NE(line.find("\"ts_s\":2"), std::string::npos);
  EXPECT_NE(line.find("\"interval_s\":1"), std::string::npos);
  EXPECT_NE(line.find("\"pkts\":{\"total\":150,\"rate\":50"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line
}

TEST(JsonLinesTest, FlushSyncsTheStream) {
  MetricsRegistry reg;
  reg.register_counter_fn("pkts", [] { return std::uint64_t{1}; });
  std::ostringstream out;
  JsonLinesExporter exporter(out);
  const MetricsSnapshot s = reg.snapshot(Timestamp::from_sec(1.0));
  exporter.export_snapshot(s, SnapshotDelta::between(s, s));
  exporter.flush();  // no-throw contract, stream already carries the line
  EXPECT_NE(out.str().find("\"pkts\""), std::string::npos);
  // Base-class default: flush on an exporter that never buffers is a
  // no-op, not an abstract hole.
  PrometheusExporter prom(out);
  static_cast<MetricsExporter&>(prom).flush();
}

TEST(SelfIngestTest, WritesPrefixedSeriesWithStatTags) {
  MetricsRegistry reg;
  std::uint64_t rx_packets = 0;
  reg.register_counter_fn("nic.rx_packets", [&rx_packets] { return rx_packets; });
  reg.register_gauge_fn("bus.pending", [] { return 5.0; });
  HistogramHandle h = reg.histogram("enrich.batch_ns");

  TsdbEngine db;
  SelfIngestExporter exporter(db);

  rx_packets += 100;
  h.record(std::int64_t{2000});
  const MetricsSnapshot s1 = reg.snapshot(Timestamp::from_sec(1.0));
  exporter.export_snapshot(s1, SnapshotDelta::between(s1, s1));

  rx_packets += 60;
  const MetricsSnapshot s2 = reg.snapshot(Timestamp::from_sec(3.0));
  exporter.export_snapshot(s2, SnapshotDelta::between(s1, s2));

  const Timestamp t0;
  const Timestamp t1 = Timestamp::from_sec(100.0);
  const auto totals = db.aggregate("ruru.self.nic.rx_packets", TagSet{}.add("stat", "total"),
                                   t0, t1);
  EXPECT_EQ(totals.count, 2u);
  EXPECT_DOUBLE_EQ(totals.max, 160.0);

  // Rate over the 2 s second interval: 60 / 2 = 30/s.
  const auto rates = db.aggregate("ruru.self.nic.rx_packets", TagSet{}.add("stat", "rate"),
                                  t0, t1);
  EXPECT_EQ(rates.count, 2u);
  EXPECT_DOUBLE_EQ(rates.max, 30.0);

  const auto gauge = db.aggregate("ruru.self.bus.pending", TagSet{}.add("stat", "value"),
                                  t0, t1);
  EXPECT_EQ(gauge.count, 2u);
  EXPECT_DOUBLE_EQ(gauge.max, 5.0);

  const auto p95 = db.aggregate("ruru.self.enrich.batch_ns", TagSet{}.add("stat", "p95"),
                                t0, t1);
  EXPECT_EQ(p95.count, 2u);
  EXPECT_DOUBLE_EQ(p95.max, 2000.0);  // single sample: quantiles exact
}

}  // namespace
}  // namespace ruru::obs
