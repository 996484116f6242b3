#include "analytics/enricher.hpp"

#include <gtest/gtest.h>

#include <string>

#include "geo/geo6_db.hpp"
#include "geo/world.hpp"

namespace ruru {
namespace {

class EnricherTest : public ::testing::Test {
 protected:
  EnricherTest() {
    std::vector<SiteSpec> sites;
    SiteSpec akl;
    akl.city = "Auckland";
    akl.country = "NZ";
    akl.latitude = -36.8;
    akl.longitude = 174.7;
    akl.asn = 9431;
    akl.organization = "REANNZ";
    akl.block_start = Ipv4Address(10, 1, 0, 0).value();
    sites.push_back(akl);
    SiteSpec lax;
    lax.city = "Los Angeles";
    lax.country = "US";
    lax.latitude = 34.05;
    lax.longitude = -118.24;
    lax.asn = 15169;
    lax.block_start = Ipv4Address(10, 2, 0, 0).value();
    sites.push_back(lax);
    auto w = build_world(sites);
    EXPECT_TRUE(w.ok());
    world_ = std::make_unique<World>(std::move(w).value());
    sites_ = std::move(sites);
  }

  LatencySample sample() {
    LatencySample s;
    s.client = Ipv4Address(10, 1, 0, 5);
    s.server = Ipv4Address(10, 2, 0, 9);
    s.client_port = 40'000;
    s.server_port = 443;
    s.syn_time = Timestamp::from_ms(1000);
    s.synack_time = Timestamp::from_ms(1128);
    s.ack_time = Timestamp::from_ms(1133);
    s.queue_id = 2;
    return s;
  }

  std::unique_ptr<World> world_;
  std::vector<SiteSpec> sites_;
};

TEST_F(EnricherTest, EnrichesBothEndpoints) {
  Enricher e(world_->geo, world_->as);
  const EnrichedSample out = e.enrich(sample());
  EXPECT_EQ(out.client.city(), "Auckland");
  EXPECT_EQ(out.client.country(), "NZ");
  EXPECT_EQ(out.client.asn, 9431u);
  EXPECT_EQ(out.client.as_org(), "REANNZ");
  EXPECT_TRUE(out.client.located);
  EXPECT_EQ(out.server.city(), "Los Angeles");
  EXPECT_EQ(out.server.asn, 15169u);
  EXPECT_DOUBLE_EQ(out.server.latitude, 34.05);
}

TEST_F(EnricherTest, LatenciesCarriedThrough) {
  Enricher e(world_->geo, world_->as);
  const EnrichedSample out = e.enrich(sample());
  EXPECT_EQ(out.external.ns, Duration::from_ms(128).ns);
  EXPECT_EQ(out.internal.ns, Duration::from_ms(5).ns);
  EXPECT_EQ(out.total.ns, Duration::from_ms(133).ns);
  EXPECT_EQ(out.completed_at.ns, Timestamp::from_ms(1133).ns);
  EXPECT_EQ(out.queue_id, 2);
}

TEST_F(EnricherTest, UnknownAddressMarkedUnlocated) {
  Enricher e(world_->geo, world_->as);
  LatencySample s = sample();
  s.server = Ipv4Address(203, 0, 113, 1);  // not in the world
  const EnrichedSample out = e.enrich(s);
  EXPECT_TRUE(out.client.located);
  EXPECT_FALSE(out.server.located);
  EXPECT_EQ(e.stats().unlocated, 1u);
}

TEST_F(EnricherTest, Ipv6IsUnlocatedWithoutGeo6) {
  Enricher e(world_->geo, world_->as);
  LatencySample s = sample();
  s.client = Ipv6Address::parse("2001:db8::1").value();
  const EnrichedSample out = e.enrich(s);
  EXPECT_FALSE(out.client.located);
}

TEST_F(EnricherTest, CacheHitsOnRepeatedAddresses) {
  Enricher e(world_->geo, world_->as);
  for (int i = 0; i < 10; ++i) (void)e.enrich(sample());
  // 2 misses (first lookup of each endpoint), 18 hits.
  EXPECT_EQ(e.stats().cache_misses, 2u);
  EXPECT_EQ(e.stats().cache_hits, 18u);
}

TEST_F(EnricherTest, Ipv6GoesThroughTheCache) {
  auto geo6 = derive_geo6(sites_);
  ASSERT_TRUE(geo6.ok()) << geo6.error();
  Enricher e(world_->geo, world_->as);
  e.set_geo6(&geo6.value());
  LatencySample s = sample();
  // The traffic model maps 10.1.0.5 into the derived v6 table.
  s.client = Ipv6Address::parse("2001:db8:6464::a01:5").value();
  for (int i = 0; i < 5; ++i) {
    const EnrichedSample out = e.enrich(s);
    EXPECT_TRUE(out.client.located);
    EXPECT_EQ(out.client.city(), "Auckland");
  }
  // 2 misses (one per endpoint family), the rest hits — the v6 endpoint
  // is cached like the v4 one.
  EXPECT_EQ(e.stats().cache_misses, 2u);
  EXPECT_EQ(e.stats().cache_hits, 8u);
}

TEST_F(EnricherTest, NegativeLookupsAreCached) {
  Enricher e(world_->geo, world_->as);
  LatencySample s = sample();
  s.server = Ipv4Address(203, 0, 113, 1);  // not in the world
  for (int i = 0; i < 4; ++i) (void)e.enrich(s);
  // The unlocated server misses once, then hits its cached negative.
  EXPECT_EQ(e.stats().cache_misses, 2u);
  EXPECT_EQ(e.stats().cache_hits, 6u);
  EXPECT_EQ(e.stats().unlocated, 4u);
}

TEST_F(EnricherTest, BatchMatchesSingleSampleEnrichment) {
  Enricher single(world_->geo, world_->as);
  Enricher batched(world_->geo, world_->as);
  std::vector<LatencySample> batch;
  for (int i = 0; i < 64; ++i) {
    LatencySample s = sample();
    s.client = Ipv4Address(0x0A010000u + static_cast<std::uint32_t>(i % 7));
    s.server = (i % 5 == 0) ? IpAddress(Ipv4Address(203, 0, 113, 9))  // unlocated
                            : IpAddress(Ipv4Address(0x0A020000u + static_cast<std::uint32_t>(i)));
    batch.push_back(s);
  }
  std::vector<EnrichedSample> out;
  batched.enrich_batch(batch, out);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const EnrichedSample ref = single.enrich(batch[i]);
    EXPECT_EQ(out[i].client.city(), ref.client.city());
    EXPECT_EQ(out[i].server.city(), ref.server.city());
    EXPECT_EQ(out[i].client.asn, ref.client.asn);
    EXPECT_EQ(out[i].server.located, ref.server.located);
    EXPECT_EQ(out[i].total.ns, ref.total.ns);
  }
  EXPECT_EQ(batched.stats().enriched, single.stats().enriched);
  EXPECT_EQ(batched.stats().unlocated, single.stats().unlocated);
  EXPECT_EQ(batched.stats().cache_hits, single.stats().cache_hits);
  EXPECT_EQ(batched.stats().cache_misses, single.stats().cache_misses);
}

TEST_F(EnricherTest, StatsAreTheSingleSourceOfTruth) {
  // hits + misses must equal exactly two lookups per enriched sample —
  // the old LruCache kept its own duplicate counters; these are the only
  // ones now.
  Enricher e(world_->geo, world_->as);
  for (int i = 0; i < 25; ++i) (void)e.enrich(sample());
  EXPECT_EQ(e.stats().cache_hits + e.stats().cache_misses, 2u * e.stats().enriched);
}

TEST_F(EnricherTest, EnrichedSampleCarriesNoAddresses) {
  // Privacy invariant (§2): the output type has no IP fields at all, so
  // this is a compile-time guarantee; assert the location strings do not
  // leak dotted quads either.
  Enricher e(world_->geo, world_->as);
  const EnrichedSample out = e.enrich(sample());
  for (const std::string_view s : {out.client.city(), out.client.country(), out.server.city()}) {
    EXPECT_EQ(s.find("10."), std::string_view::npos);
  }
}

}  // namespace
}  // namespace ruru
