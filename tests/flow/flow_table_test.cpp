#include "flow/flow_table.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/random.hpp"

namespace ruru {
namespace {

FlowKey key_for(std::uint32_t client_host, std::uint16_t sport) {
  FiveTuple t;
  t.src = Ipv4Address(client_host);
  t.dst = Ipv4Address(10, 2, 0, 1);
  t.src_port = sport;
  t.dst_port = 443;
  t.protocol = 6;
  return FlowKey::from(t);
}

TEST(FlowTable, InsertThenFind) {
  FlowTable table(64);
  const FlowKey k = key_for(0x0A010001, 40000);
  bool inserted = false;
  const FlowTable::Slot s = table.find_or_insert(k, 0x1234, Timestamp::from_sec(1), inserted);
  ASSERT_NE(s, FlowTable::kNoSlot);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.canonical(s), k.canonical);

  const FlowTable::Slot found = table.find(k, 0x1234, Timestamp::from_sec(1));
  EXPECT_EQ(found, s);
  EXPECT_EQ(table.stats().hits, 1u);
}

TEST(FlowTable, FindMissReturnsNoSlot) {
  FlowTable table(64);
  EXPECT_EQ(table.find(key_for(1, 2), 99, Timestamp{}), FlowTable::kNoSlot);
}

TEST(FlowTable, SecondInsertFindsExisting) {
  FlowTable table(64);
  const FlowKey k = key_for(0x0A010001, 40000);
  bool inserted = false;
  const FlowTable::Slot a = table.find_or_insert(k, 7, Timestamp::from_sec(1), inserted);
  ASSERT_TRUE(inserted);
  const FlowTable::Slot b = table.find_or_insert(k, 7, Timestamp::from_sec(2), inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, EraseFreesSlot) {
  FlowTable table(64);
  bool inserted = false;
  const FlowTable::Slot s = table.find_or_insert(key_for(1, 1), 7, Timestamp{}, inserted);
  table.erase(s);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(key_for(1, 1), 7, Timestamp{}), FlowTable::kNoSlot);
  table.erase(s);  // double-erase is harmless
  EXPECT_EQ(table.stats().erases, 1u);
}

TEST(FlowTable, ErasedSlotIsATombstoneInsertsReuse) {
  FlowTable table(64);
  bool inserted = false;
  const FlowTable::Slot a = table.find_or_insert(key_for(1, 1), 7, Timestamp{}, inserted);
  table.erase(a);
  // A new flow with the same hash lands on the tombstone (first
  // reusable slot in probe order), not on a fresh empty.
  const FlowTable::Slot b = table.find_or_insert(key_for(2, 2), 7, Timestamp{}, inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(b, a);
}

TEST(FlowTable, CollidingHashesCoexistWithinProbeWindow) {
  FlowTable table(64);
  // Same rss hash for distinct flows: group probing must separate them.
  bool inserted = false;
  const FlowTable::Slot a = table.find_or_insert(key_for(1, 100), 42, Timestamp{}, inserted);
  const FlowTable::Slot b = table.find_or_insert(key_for(2, 200), 42, Timestamp{}, inserted);
  ASSERT_NE(a, FlowTable::kNoSlot);
  ASSERT_NE(b, FlowTable::kNoSlot);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.find(key_for(1, 100), 42, Timestamp{}), a);
  EXPECT_EQ(table.find(key_for(2, 200), 42, Timestamp{}), b);
  // The control tag fingerprints the five-tuple, not the shared rss
  // hash, so pile members are told apart at the control byte: with high
  // probability (127/128 per pair) no hot-row verification ever failed.
  EXPECT_LE(table.stats().tag_mismatches.load(), 1u);
}

TEST(FlowTable, TupleTagCollisionsAreVerifiedAndCounted) {
  FlowTable table(64, Duration::from_sec(1000.0));
  bool inserted = false;
  ASSERT_NE(table.find_or_insert(key_for(1, 100), 42, Timestamp{}, inserted),
            FlowTable::kNoSlot);
  // 7-bit tags collide for ~1/128 of keys: probe misses with the same
  // rss hash until one lands on the resident flow's tag.  That probe
  // must verify the hot row, reject it, and count the false positive.
  bool collided = false;
  for (std::uint32_t i = 2; i < 2000; ++i) {
    ASSERT_EQ(table.find(key_for(i, 200), 42, Timestamp{}), FlowTable::kNoSlot);
    if (table.stats().tag_mismatches.load() > 0) {
      collided = true;
      break;
    }
  }
  EXPECT_TRUE(collided);
}

TEST(FlowTable, ProbeWindowExhaustionFailsInsert) {
  FlowTable table(64, Duration::from_sec(1000.0));
  bool inserted = false;
  // Fill one probe window with live entries sharing a hash.
  for (std::size_t i = 0; i < table.probe_window(); ++i) {
    ASSERT_NE(table.find_or_insert(key_for(static_cast<std::uint32_t>(i + 1), 1), 5,
                                   Timestamp::from_sec(1), inserted),
              FlowTable::kNoSlot);
  }
  EXPECT_EQ(table.find_or_insert(key_for(9999, 1), 5, Timestamp::from_sec(1), inserted),
            FlowTable::kNoSlot);
  EXPECT_EQ(table.stats().insert_failures, 1u);
}

TEST(FlowTable, StaleEntriesAreReclaimed) {
  FlowTable table(64, Duration::from_sec(30.0));
  bool inserted = false;
  for (std::size_t i = 0; i < table.probe_window(); ++i) {
    table.find_or_insert(key_for(static_cast<std::uint32_t>(i + 1), 1), 5, Timestamp::from_sec(1),
                         inserted);
  }
  // 60 s later every occupant is stale: a full window triggers the
  // in-window reclamation, which retires ALL dead entries there (the
  // incremental sweep just had not reached these groups yet).
  const FlowTable::Slot s =
      table.find_or_insert(key_for(9999, 1), 5, Timestamp::from_sec(61), inserted);
  ASSERT_NE(s, FlowTable::kNoSlot);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.stats().evictions_stale, table.probe_window());
  EXPECT_EQ(table.size(), 1u);  // the window's dead handshakes are gone
}

TEST(FlowTable, StaleEntryNotReturnedByFind) {
  FlowTable table(64, Duration::from_sec(30.0));
  bool inserted = false;
  table.find_or_insert(key_for(1, 1), 5, Timestamp::from_sec(1), inserted);
  EXPECT_EQ(table.find(key_for(1, 1), 5, Timestamp::from_sec(100)), FlowTable::kNoSlot);
  // A re-insert treats it as a fresh handshake.
  const FlowTable::Slot s =
      table.find_or_insert(key_for(1, 1), 5, Timestamp::from_sec(100), inserted);
  ASSERT_NE(s, FlowTable::kNoSlot);
  EXPECT_TRUE(inserted);
}

TEST(FlowTable, FindErasesStaleMatchSoOccupancyStaysAccurate) {
  FlowTable table(64, Duration::from_sec(30.0));
  bool inserted = false;
  table.find_or_insert(key_for(1, 1), 5, Timestamp::from_sec(1), inserted);
  ASSERT_EQ(table.size(), 1u);
  // find() on a stale match reports a miss AND reclaims the slot, so
  // occupancy reflects live flows rather than abandoned handshakes.
  EXPECT_EQ(table.find(key_for(1, 1), 5, Timestamp::from_sec(100)), FlowTable::kNoSlot);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.stats().evictions_stale, 1u);
}

TEST(FlowTable, StaleReinsertDoesNotLeakOccupancy) {
  FlowTable table(64, Duration::from_sec(30.0));
  bool inserted = false;
  // Same flow abandoned and retried repeatedly: live_ must not grow.
  for (int round = 0; round < 5; ++round) {
    const FlowTable::Slot s = table.find_or_insert(key_for(1, 1), 5,
                                                   Timestamp::from_sec(1 + round * 100), inserted);
    ASSERT_NE(s, FlowTable::kNoSlot);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(table.size(), 1u);
  }
  EXPECT_EQ(table.stats().evictions_stale, 4u);
}

TEST(FlowTable, CapacityRoundsToPowerOfTwo) {
  FlowTable table(100);
  EXPECT_EQ(table.capacity(), 128u);
  // Tiny capacities round up to at least one probe group.
  FlowTable tiny(1);
  EXPECT_EQ(tiny.capacity(), 16u);
  EXPECT_EQ(tiny.probe_window(), 16u);  // window clamped to capacity
}

TEST(FlowTable, ProbeWindowIsConfigurable) {
  // One group: saturation after 16 colliding live entries.
  FlowTable narrow(256, Duration::from_sec(1000.0), 16);
  EXPECT_EQ(narrow.probe_window(), 16u);
  bool inserted = false;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_NE(narrow.find_or_insert(key_for(i + 1, 1), 5, Timestamp::from_sec(1), inserted),
              FlowTable::kNoSlot);
  }
  EXPECT_EQ(narrow.find_or_insert(key_for(99, 1), 5, Timestamp::from_sec(1), inserted),
            FlowTable::kNoSlot);

  // Four groups: the same collision pile fits 64 entries.
  FlowTable wide(256, Duration::from_sec(1000.0), 64);
  EXPECT_EQ(wide.probe_window(), 64u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_NE(wide.find_or_insert(key_for(i + 1, 1), 5, Timestamp::from_sec(1), inserted),
              FlowTable::kNoSlot);
  }
  EXPECT_EQ(wide.find_or_insert(key_for(99, 1), 5, Timestamp::from_sec(1), inserted),
            FlowTable::kNoSlot);

  // Ragged windows round up to whole groups.
  FlowTable ragged(256, Duration::from_sec(30.0), 17);
  EXPECT_EQ(ragged.probe_window(), 32u);
}

// --- collision saturation ----------------------------------------------

TEST(FlowTableCollision, SaturatedWindowStillFindsEveryResident) {
  FlowTable table(256, Duration::from_sec(1000.0));
  bool inserted = false;
  const std::size_t window = table.probe_window();
  for (std::uint32_t i = 0; i < window; ++i) {
    ASSERT_NE(table.find_or_insert(key_for(i + 1, 1), 5, Timestamp::from_sec(1), inserted),
              FlowTable::kNoSlot);
  }
  // Saturated: inserts fail but every resident is still reachable.
  EXPECT_EQ(table.find_or_insert(key_for(9999, 1), 5, Timestamp::from_sec(1), inserted),
            FlowTable::kNoSlot);
  for (std::uint32_t i = 0; i < window; ++i) {
    EXPECT_NE(table.find(key_for(i + 1, 1), 5, Timestamp::from_sec(2)), FlowTable::kNoSlot)
        << "resident " << i << " lost under saturation";
    EXPECT_EQ(table.classify(key_for(i + 1, 1), 5, Timestamp::from_sec(2)).kind,
              FlowTable::ClassifyKind::kLive);
  }
}

TEST(FlowTableCollision, EraseUnderSaturationMakesRoomForExactlyOne) {
  FlowTable table(256, Duration::from_sec(1000.0));
  bool inserted = false;
  const std::size_t window = table.probe_window();
  std::vector<FlowTable::Slot> slots;
  for (std::uint32_t i = 0; i < window; ++i) {
    slots.push_back(table.find_or_insert(key_for(i + 1, 1), 5, Timestamp::from_sec(1), inserted));
  }
  table.erase(slots[window / 2]);
  const FlowTable::Slot s =
      table.find_or_insert(key_for(9999, 1), 5, Timestamp::from_sec(1), inserted);
  EXPECT_EQ(s, slots[window / 2]);  // the tombstone is the only opening
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.find_or_insert(key_for(8888, 1), 5, Timestamp::from_sec(1), inserted),
            FlowTable::kNoSlot);
}

TEST(FlowTableCollision, StaleReclamationUnderCollisionKeepsLiveEntries) {
  FlowTable table(256, Duration::from_sec(30.0));
  bool inserted = false;
  const std::size_t window = table.probe_window();
  // Interleave: even flows inserted at t=1 (will go stale), odd flows
  // refreshed at t=40 (still live at t=50).
  for (std::uint32_t i = 0; i < window; ++i) {
    table.find_or_insert(key_for(i + 1, 1), 5, Timestamp::from_sec(1), inserted);
  }
  for (std::uint32_t i = 1; i < window; i += 2) {
    ASSERT_NE(table.find(key_for(i + 1, 1), 5, Timestamp::from_sec(25)), FlowTable::kNoSlot);
    // find() refreshes nothing by itself; touch the live ones.
    table.touch(table.find(key_for(i + 1, 1), 5, Timestamp::from_sec(25)),
                Timestamp::from_sec(40));
  }
  // t=50: evens are 49 s idle (stale), odds 10 s (live). The full window
  // forces in-window reclamation of the evens only.
  const FlowTable::Slot s =
      table.find_or_insert(key_for(9999, 1), 5, Timestamp::from_sec(50), inserted);
  ASSERT_NE(s, FlowTable::kNoSlot);
  EXPECT_TRUE(inserted);
  for (std::uint32_t i = 1; i < window; i += 2) {
    EXPECT_NE(table.find(key_for(i + 1, 1), 5, Timestamp::from_sec(50)), FlowTable::kNoSlot)
        << "live flow " << i << " lost to reclamation";
  }
  for (std::uint32_t i = 0; i < window; i += 2) {
    EXPECT_EQ(table.find(key_for(i + 1, 1), 5, Timestamp::from_sec(50)), FlowTable::kNoSlot);
  }
}

// --- incremental sweep -------------------------------------------------

TEST(FlowTableSweep, ReclaimsStaleEntriesIncrementally) {
  FlowTable table(256, Duration::from_sec(30.0));  // 16 groups
  Pcg32 rng(3);
  bool inserted = false;
  std::size_t live = 0;
  for (int i = 0; i < 100; ++i) {
    if (table.find_or_insert(key_for(rng.next_u32(), static_cast<std::uint16_t>(i)),
                             rng.next_u32(), Timestamp::from_sec(1), inserted) !=
        FlowTable::kNoSlot) {
      ++live;
    }
  }
  ASSERT_EQ(table.size(), live);

  // Sweep 4 groups at a time at t=100 (everything stale): after at most
  // 4 calls (16 groups total) the table is empty.
  std::size_t reclaimed = 0;
  for (int pass = 0; pass < 4; ++pass) {
    reclaimed += table.sweep(Timestamp::from_sec(100), 4);
  }
  EXPECT_EQ(reclaimed, live);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.stats().sweep_evictions, live);
  EXPECT_EQ(table.stats().evictions_stale, live);
}

TEST(FlowTableSweep, PartialSweepOnlyTouchesRequestedGroups) {
  FlowTable table(256, Duration::from_sec(30.0));  // 16 groups
  bool inserted = false;
  std::size_t live = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    if (table.find_or_insert(key_for(i * 2654435761u + 1, 1), i * 2654435761u,
                             Timestamp::from_sec(1), inserted) != FlowTable::kNoSlot) {
      ++live;
    }
  }
  // One group per call: after one call some entries must survive.
  table.sweep(Timestamp::from_sec(100), 1);
  EXPECT_GT(table.size(), 0u);
  // The cursor wraps and eventually clears everything.
  for (int pass = 0; pass < 15; ++pass) table.sweep(Timestamp::from_sec(100), 1);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTableSweep, LeavesLiveEntriesAlone) {
  FlowTable table(64, Duration::from_sec(30.0));
  bool inserted = false;
  table.find_or_insert(key_for(1, 1), 5, Timestamp::from_sec(90), inserted);
  table.find_or_insert(key_for(2, 2), 77, Timestamp::from_sec(1), inserted);
  EXPECT_EQ(table.sweep(Timestamp::from_sec(100), 64), 1u);  // only the t=1 entry
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.find(key_for(1, 1), 5, Timestamp::from_sec(100)), FlowTable::kNoSlot);
}

TEST(FlowTable, ManyFlowsChurnWithoutLoss) {
  // ~10k flows stay live (half of 20k complete immediately); size the
  // table with the same ~3x headroom a deployment would use.
  FlowTable table(1 << 15);
  Pcg32 rng(5);
  bool inserted = false;
  std::uint64_t failures = 0;
  for (int i = 0; i < 20'000; ++i) {
    const FlowKey k = key_for(rng.next_u32(), static_cast<std::uint16_t>(rng.next_u32()));
    const std::uint32_t h = rng.next_u32();
    const FlowTable::Slot s = table.find_or_insert(k, h, Timestamp::from_ms(i), inserted);
    if (s == FlowTable::kNoSlot) {
      ++failures;
      continue;
    }
    if (inserted) {
      table.data(s).syn_time = Timestamp::from_ms(i);
    }
    if (i % 2 == 0) table.erase(s);  // half the flows complete immediately
  }
  // With generous capacity and churn, failures should be negligible.
  EXPECT_LT(failures, 100u);
  EXPECT_LE(table.size(), table.capacity());
}

// --- concurrency: the metrics snapshot thread vs the data path ---------
//
// The owning worker is the only mutator, but the snapshot thread reads
// stats()/size() live. Run under TSan (tools/check.sh tsan) this proves
// those reads race nothing.

TEST(FlowTableConcurrency, StatsSnapshotRacesDataPathCleanly) {
  FlowTable table(1 << 12);
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) {
      sink += table.stats().inserts.load() + table.stats().hits.load() +
              table.stats().evictions_stale.load() + table.stats().erases.load() +
              table.stats().tag_mismatches.load() + table.stats().sweep_evictions.load() +
              table.size();
    }
    // Consume so the loop is not optimized away.
    EXPECT_GE(sink, 0u);
  });

  Pcg32 rng(21);
  bool inserted = false;
  for (int i = 0; i < 50'000; ++i) {
    const FlowKey k = key_for(rng.bounded(512) + 1, static_cast<std::uint16_t>(rng.bounded(64)));
    const std::uint32_t h = rng.bounded(1024);
    const Timestamp now = Timestamp::from_ms(i);
    switch (rng.bounded(4)) {
      case 0:
        table.find_or_insert(k, h, now, inserted);
        break;
      case 1:
        (void)table.find(k, h, now);
        break;
      case 2: {
        const FlowTable::Slot s = table.find(k, h, now);
        if (s != FlowTable::kNoSlot) table.erase(s);
        break;
      }
      case 3:
        table.sweep(now, 2);
        break;
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

}  // namespace
}  // namespace ruru
