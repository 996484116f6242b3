#include "flow/link_meter.hpp"

#include <gtest/gtest.h>

namespace ruru {
namespace {

TEST(LinkMeter, WindowsCloseOnTimeAdvance) {
  LinkMeter meter(Duration::from_sec(1.0));
  // 10 packets of 1000 B in second 0, 5 in second 1.
  for (int i = 0; i < 10; ++i) meter.on_packet(Timestamp::from_ms(i * 100), 1000);
  for (int i = 0; i < 5; ++i) meter.on_packet(Timestamp::from_ms(1000 + i * 100), 1000);
  ASSERT_EQ(meter.closed().size(), 1u);
  const LinkWindow& w = meter.closed()[0];
  EXPECT_EQ(w.packets, 10u);
  EXPECT_EQ(w.bytes, 10'000u);
  EXPECT_DOUBLE_EQ(w.mbps(), 10'000 * 8.0 / 1e6);
  EXPECT_DOUBLE_EQ(w.pps(), 10.0);
  EXPECT_EQ(w.start.ns, 0);
}

TEST(LinkMeter, FlushClosesCurrentWindow) {
  LinkMeter meter(Duration::from_sec(1.0));
  meter.on_packet(Timestamp::from_ms(100), 500);
  EXPECT_TRUE(meter.closed().empty());
  meter.flush();
  ASSERT_EQ(meter.closed().size(), 1u);
  EXPECT_EQ(meter.closed()[0].bytes, 500u);
}

TEST(LinkMeter, GapsProduceZeroWindows) {
  LinkMeter meter(Duration::from_sec(1.0));
  meter.on_packet(Timestamp::from_ms(100), 100);
  meter.on_packet(Timestamp::from_ms(3'500), 100);  // 3 s later
  // Windows 0 (100 B), 1 (0), 2 (0) closed; window 3 in progress.
  ASSERT_EQ(meter.closed().size(), 3u);
  EXPECT_EQ(meter.closed()[0].packets, 1u);
  EXPECT_EQ(meter.closed()[1].packets, 0u);
  EXPECT_EQ(meter.closed()[2].packets, 0u);
}

TEST(LinkMeter, TotalsAccumulate) {
  LinkMeter meter(Duration::from_ms(100));
  for (int i = 0; i < 100; ++i) meter.on_packet(Timestamp::from_ms(i * 10), 64);
  EXPECT_EQ(meter.total_packets(), 100u);
  EXPECT_EQ(meter.total_bytes(), 6'400u);
}

TEST(LinkMeter, FlushOnEmptyMeterIsNoop) {
  LinkMeter meter;
  meter.flush();
  EXPECT_TRUE(meter.closed().empty());
}

TEST(LinkMeter, WindowStartsAlignToGrid) {
  LinkMeter meter(Duration::from_sec(1.0));
  meter.on_packet(Timestamp::from_ms(750), 1);  // first packet mid-window
  meter.on_packet(Timestamp::from_ms(1250), 1);
  ASSERT_EQ(meter.closed().size(), 1u);
  EXPECT_EQ(meter.closed()[0].start.ns, 0);  // aligned, not 750 ms

  // Before the epoch the grid floors too: -1.5 s lies in [-2 s, -1 s).
  LinkMeter early(Duration::from_sec(1.0));
  early.on_packet(Timestamp::from_ms(-1500), 1);
  early.flush();
  ASSERT_EQ(early.closed().size(), 1u);
  EXPECT_EQ(early.closed()[0].start.ns, Timestamp::from_ms(-2000).ns);
}

}  // namespace
}  // namespace ruru
