#include "flow/flow_table.hpp"

#include <bit>
#include <cstring>

namespace ruru {

std::uint64_t FlowTable::fold_ip(const IpAddress& a) {
  if (a.is_v4()) return a.v4.value();
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::memcpy(&hi, a.v6.bytes().data(), 8);
  std::memcpy(&lo, a.v6.bytes().data() + 8, 8);
  return hi ^ (lo * 0x100000001b3ULL);
}

FlowTable::FlowTable(std::size_t capacity, Duration stale_after, std::size_t probe_window,
                     std::size_t ts_ring_entries)
    : stale_after_(stale_after) {
  std::size_t cap = kFlowGroupWidth;  // at least one full group
  while (cap < capacity) cap <<= 1;
  ctrl_.assign(cap, kCtrlEmpty);
  hot_.resize(cap);
  last_seen_.assign(cap, kDeadNs);  // dead sentinel; see find()'s fast path
  cold_.resize(cap);
  slot_mask_ = cap - 1;
  group_mask_ = cap / kFlowGroupWidth - 1;

  if (ts_ring_entries != 0) {
    std::size_t entries = 2;  // ts_note's index math needs a power of two
    while (entries < ts_ring_entries) entries <<= 1;
    ts_entries_ = entries;
    ts_vals_.assign(cap * 2 * entries, 0);
    ts_times_.assign(cap * 2 * entries, kTsNever);
    ts_state_.resize(cap);
  }

  std::size_t groups = (probe_window + kFlowGroupWidth - 1) / kFlowGroupWidth;
  if (groups == 0) groups = 1;
  if (groups > group_mask_ + 1) groups = group_mask_ + 1;
  window_groups_ = groups;
}

// The one probe core.  Semantics shared by every caller:
//
//  * only slots whose control tag matches are verified against the hot
//    row (rss_hash first, then the canonical tuple); a tag hit that
//    fails verification is a fingerprint false positive, counted in
//    tag_mismatches (kClassify hands the count back instead);
//  * a verified match that went stale is a dead handshake: find and
//    insert reclaim the slot (tombstone) and keep probing, classify
//    flags it and keeps probing — the mutation-free variant of the same
//    rule;
//  * kInsert remembers the first empty-or-tombstone slot in probe order
//    as the insertion point;
//  * every mode stops at the first group containing an empty byte:
//    erase() and the sweep only ever create tombstones, and inserts
//    claim the first reusable slot in probe order, so no live key can
//    sit past an empty byte in its probe sequence.
template <FlowTable::ProbeMode Mode>
FlowTable::ProbeResult FlowTable::probe(const FiveTuple& key, std::uint32_t rss_hash,
                                        Timestamp now) {
  const std::uint64_t h = mix(rss_hash);
  ProbeResult r;

  // Home-slot short-circuit: the exact slot `h` maps to is where the
  // no-collision insert put this key, so a clean live hit resolves with
  // one control-byte liveness test and one hot row — no tag computation,
  // no group compare (the tag exists to filter *scans*; a single probed
  // slot is cheaper to verify directly).  Anything else (occupied by
  // another key, stale entry) falls through to the full probe, which
  // repeats the slot inside its first group and applies the usual
  // reclamation/stat accounting exactly once.  find() and classify()
  // run this same check inline before they call in, so only inserts
  // take it here.
  if constexpr (Mode == ProbeMode::kInsert) {
    const std::size_t home = home_slot(h);
    if ((ctrl_[home] & 0x80u) == 0) {  // live slot
      const HotSlot& hs = hot_[home];
      if (hs.rss_hash == rss_hash && hs.key == key &&
          now.ns - last_seen_[home] <= stale_after_.ns) {
        r.match = static_cast<Slot>(home);
        r.groups = 1;
        return r;
      }
    } else {
      // Prefer the exact home slot when it is reusable (over an earlier
      // tombstone elsewhere in the group): the next lookup of this key
      // then takes the short-circuit.  The slot is in the first probed
      // group, so the claim keeps the probe-stop invariant intact.
      r.reuse = static_cast<Slot>(home);
    }
  }

  const std::uint8_t tag = tuple_tag(key);
  std::size_t group = home_group(h);
  for (std::size_t gi = 0; gi < window_groups_; ++gi, group = (group + 1) & group_mask_) {
    ++r.groups;
    const std::uint8_t* ctrl = ctrl_.data() + group * kFlowGroupWidth;
    if constexpr (Mode == ProbeMode::kInsert) {
      if (r.reuse == kNoSlot) {
        const GroupMask reusable = group_reusable(ctrl);
        if (reusable != 0) {
          r.reuse = static_cast<Slot>(group * kFlowGroupWidth +
                                      static_cast<std::size_t>(std::countr_zero(reusable)));
        }
      }
    }
    GroupMask match = group_match(ctrl, tag);
    while (match != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(match));
      match &= match - 1;
      const auto slot = static_cast<Slot>(group * kFlowGroupWidth + bit);
      const HotSlot& hs = hot_[slot];
      if (hs.rss_hash != rss_hash || !(hs.key == key)) {
        if constexpr (Mode == ProbeMode::kClassify) {
          ++r.mismatches;  // replayed later via apply_*_stats, not counted here
        } else {
          ++stats_.tag_mismatches;
        }
        continue;
      }
      if (now.ns - last_seen_[slot] > stale_after_.ns) {
        if constexpr (Mode == ProbeMode::kClassify) {
          // find() would reclaim here: flag the divergence so the caller
          // re-runs the mutating lookup instead of trusting this walk.
          r.stale_seen = true;
          continue;
        } else {
          reclaim(slot);
          if constexpr (Mode == ProbeMode::kInsert) {
            if (r.reuse == kNoSlot) r.reuse = slot;
          }
          continue;
        }
      }
      r.match = slot;
      return r;
    }
    if (group_empty(ctrl) != 0) break;
  }
  return r;
}

FlowTable::Slot FlowTable::find_slow(const FlowKey& key, std::uint32_t rss_hash, Timestamp now) {
  const ProbeResult r = probe<ProbeMode::kFind>(key.canonical, rss_hash, now);
  obs_.probe_groups.record(static_cast<std::int64_t>(r.groups));
  if (r.match == kNoSlot) return kNoSlot;
  ++stats_.hits;
  return r.match;
}

FlowTable::FlowClassify FlowTable::classify(const FlowKey& key, std::uint32_t rss_hash,
                                            Timestamp now) const {
  FlowClassify c;
  // Same inline home-slot check as find(), gated on the control byte:
  // an erased or swept slot carries the kDeadNs last_seen sentinel (so
  // the staleness compare would reject it anyway), but reading the
  // 1-byte ctrl first skips the hot row and last_seen loads entirely —
  // on a skip-heavy mix the home slot is usually dead, and its hot line
  // (one full line per slot) is the probe's most expensive touch.  The
  // ctrl line is shared with the group walk below, so a dead home costs
  // nothing extra.
  const std::size_t home = home_slot(mix(rss_hash));
  if ((ctrl_[home] & 0x80u) == 0) [[likely]] {
    const HotSlot& hs = hot_[home];
    if (hs.rss_hash == rss_hash && hs.key == key.canonical &&
        now.ns - last_seen_[home] <= stale_after_.ns) [[likely]] {
      c.slot = static_cast<Slot>(home);
      c.kind = ClassifyKind::kLive;
      c.home_hit = true;
      c.groups = 1;
      return c;
    }
  }
  // kClassify performs no mutation — no reclamation, no stats, no
  // histogram records (enforced by the if constexpr branches in the
  // core) — so probing through a const_cast is sound.  The walk skips
  // the home check like find_slow(), so `groups` counts what
  // find_slow() would record.
  auto& self = const_cast<FlowTable&>(*this);
  const ProbeResult r = self.probe<ProbeMode::kClassify>(key.canonical, rss_hash, now);
  c.groups = r.groups;
  c.tag_mismatches = r.mismatches;
  c.stale_seen = r.stale_seen;
  if (r.match != kNoSlot) {
    c.slot = r.match;
    c.kind = ClassifyKind::kLive;
  }
  return c;
}

void FlowTable::probe_batch(const std::uint32_t* idx, std::size_t n_idx, const FlowKey* keys,
                            const std::uint32_t* rss, const std::int64_t* ts_ns,
                            FlowClassify* out) const {
  // Phase 1: fan every lane's group prefetch out before any probe
  // resolves — the misses overlap instead of serializing one per packet.
  for (std::size_t k = 0; k < n_idx; ++k) prefetch_probe(rss[idx[k]]);
  // Phase 2: resolve back-to-back over warm lines.  Live lanes prefetch
  // what their resolve stage reads next: the cold handshake row (state
  // check) and, when the in-flow kernel is on, the timestamp rings.
  for (std::size_t k = 0; k < n_idx; ++k) {
    const std::uint32_t i = idx[k];
    out[i] = classify(keys[i], rss[i], Timestamp{ts_ns[i]});
    if (out[i].kind == ClassifyKind::kLive) {
      __builtin_prefetch(cold_.data() + out[i].slot, 1 /*write*/, 3);
      if (ts_entries_ != 0) {
        ts_prefetch(out[i].slot);
        // The batch path also warms the times lanes (both directions):
        // a match — every echoed segment, i.e. every lane that emits a
        // sample — reads ts_times to form the delta, and the in-flow
        // note writes it.  The scalar loop leaves these to the store
        // buffer / demand miss (pre-PR behaviour, kept for the oracle);
        // here the lines arrive a full stage early.
        const std::size_t off = static_cast<std::size_t>(out[i].slot) * 2 * ts_entries_;
        __builtin_prefetch(ts_times_.data() + off, 1 /*write*/, 3);
        __builtin_prefetch(ts_times_.data() + off + ts_entries_, 1 /*write*/, 3);
      }
    }
  }
}

FlowTable::Slot FlowTable::find_or_insert(const FlowKey& key, std::uint32_t rss_hash,
                                          Timestamp now, bool& inserted) {
  inserted = false;
  const ProbeResult r = probe<ProbeMode::kInsert>(key.canonical, rss_hash, now);
  obs_.probe_groups.record(static_cast<std::int64_t>(r.groups));
  if (r.match != kNoSlot) {
    ++stats_.hits;
    return r.match;
  }
  Slot slot = r.reuse;
  if (slot == kNoSlot) {
    // No empty or tombstone in the window: the incremental sweep has
    // not reached these groups yet, so reclaim their stale entries now.
    // Preserves the pre-SIMD guarantee that an insert succeeds iff the
    // window holds a free *or stale* slot.
    slot = reclaim_window(rss_hash, now);
    if (slot == kNoSlot) {
      ++stats_.insert_failures;
      return kNoSlot;
    }
  }
  ctrl_[slot] = tuple_tag(key.canonical);
  hot_[slot].key = key.canonical;
  hot_[slot].rss_hash = rss_hash;
  last_seen_[slot] = now.ns;
  cold_[slot] = FlowData{};
  if (ts_entries_ != 0) {
    ts_state_[slot] = TsFlowState{};
    ts_clear(ts_ring(slot, 0));
    ts_clear(ts_ring(slot, 1));
  }
  ++live_;
  ++stats_.inserts;
  inserted = true;
  return slot;
}

FlowTable::Slot FlowTable::reclaim_window(std::uint32_t rss_hash, Timestamp now) {
  std::size_t group = home_group(mix(rss_hash));
  Slot first = kNoSlot;
  for (std::size_t gi = 0; gi < window_groups_; ++gi, group = (group + 1) & group_mask_) {
    GroupMask full = group_full(ctrl_.data() + group * kFlowGroupWidth);
    while (full != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(full));
      full &= full - 1;
      const auto slot = static_cast<Slot>(group * kFlowGroupWidth + bit);
      if (now.ns - last_seen_[slot] > stale_after_.ns) {
        reclaim(slot);
        if (first == kNoSlot) first = slot;
      }
    }
  }
  return first;
}

void FlowTable::erase(Slot slot) {
  if (slot == kNoSlot || (ctrl_[slot] & 0x80u) != 0) return;  // double-erase is harmless
  ctrl_[slot] = kCtrlTombstone;
  last_seen_[slot] = kDeadNs;
  --live_;
  ++stats_.erases;
}

std::size_t FlowTable::sweep(Timestamp now, std::size_t max_groups) {
  const std::size_t total_groups = group_mask_ + 1;
  if (max_groups > total_groups) max_groups = total_groups;
  std::size_t reclaimed = 0;
  for (std::size_t gi = 0; gi < max_groups; ++gi) {
    const std::size_t group = sweep_cursor_;
    sweep_cursor_ = (sweep_cursor_ + 1) & group_mask_;
    GroupMask full = group_full(ctrl_.data() + group * kFlowGroupWidth);
    obs_.group_occupancy.record(std::popcount(full));
    while (full != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(full));
      full &= full - 1;
      const auto slot = static_cast<Slot>(group * kFlowGroupWidth + bit);
      if (now.ns - last_seen_[slot] > stale_after_.ns) {
        reclaim(slot);
        ++stats_.sweep_evictions;
        ++reclaimed;
      }
    }
  }
  return reclaimed;
}

}  // namespace ruru
