#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mem/cache.h"

namespace dsa::mem {
namespace {

CacheConfig TinyCache() {
  // 4 sets x 2 ways x 16-byte lines = 128 bytes.
  return CacheConfig{128, 16, 2, 1};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(TinyCache());
  EXPECT_FALSE(c.Access(0x40));
  EXPECT_TRUE(c.Access(0x40));
  EXPECT_TRUE(c.Access(0x4F));  // same line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SetIndexingSeparatesLines) {
  Cache c(TinyCache());
  // Lines 0x00 and 0x10 map to different sets: both fit simultaneously.
  c.Access(0x00);
  c.Access(0x10);
  EXPECT_TRUE(c.Probe(0x00));
  EXPECT_TRUE(c.Probe(0x10));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(TinyCache());
  // Set 0 lines: stride = 4 sets * 16B = 64.
  c.Access(0x000);  // A
  c.Access(0x040);  // B  (set 0 now full)
  c.Access(0x000);  // touch A -> B is LRU
  c.Access(0x080);  // C evicts B
  EXPECT_TRUE(c.Probe(0x000));
  EXPECT_FALSE(c.Probe(0x040));
  EXPECT_TRUE(c.Probe(0x080));
}

TEST(Cache, LruStackProperty) {
  // With W ways, accessing W distinct lines in a set keeps them all; the
  // (W+1)-th unique line evicts exactly the least recently used.
  for (std::uint32_t ways : {2u, 4u, 8u}) {
    Cache c(CacheConfig{ways * 16, 16, ways, 1});  // one set
    for (std::uint32_t i = 0; i < ways; ++i) c.Access(i * 16);
    for (std::uint32_t i = 0; i < ways; ++i) {
      EXPECT_TRUE(c.Probe(i * 16)) << "ways=" << ways << " line " << i;
    }
    c.Access(ways * 16);  // one beyond capacity
    EXPECT_FALSE(c.Probe(0));
    for (std::uint32_t i = 1; i <= ways; ++i) EXPECT_TRUE(c.Probe(i * 16));
  }
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(TinyCache());
  c.Access(0x00);
  c.Flush();
  EXPECT_FALSE(c.Probe(0x00));
}

TEST(Cache, FillsInvalidWaysInOrderBeforeEvicting) {
  // A set must consume every invalid way before recycling a valid line,
  // and the scan is strictly first-invalid-wins: cold fills land in way
  // 0, 1, 2, 3 in access order.
  Cache c(CacheConfig{256, 16, 4, 1});  // 4 sets x 4 ways
  // All four lines map to set 0 (stride = 4 sets * 16B = 64).
  c.Access(0x000);
  c.Access(0x040);
  c.Access(0x080);
  c.Access(0x0C0);
  EXPECT_EQ(c.WayOf(0x000), 0);
  EXPECT_EQ(c.WayOf(0x040), 1);
  EXPECT_EQ(c.WayOf(0x080), 2);
  EXPECT_EQ(c.WayOf(0x0C0), 3);
  // Touch way 1 so it is MRU, then fill a fifth line: the victim must be
  // the LRU valid line (way 0), never an already-valid MRU way.
  c.Access(0x040);
  c.Access(0x100);
  EXPECT_EQ(c.WayOf(0x100), 0);
  EXPECT_EQ(c.WayOf(0x040), 1);
  EXPECT_EQ(c.WayOf(0x000), -1);  // evicted
}

TEST(Cache, FastPathMatchesReferenceWalkOnRandomStream) {
  // The way-predicted fast path must be invisible in every observable:
  // same hit/miss verdict per access, same stats, same final way layout as
  // the pre-optimization full set walk. The address stream churns a
  // footprint several times the cache so evictions (and therefore
  // residency-map invalidations) happen constantly.
  Cache fast(TinyCache());
  Cache ref(TinyCache());
  ref.set_reference_path(true);
  std::uint32_t s = 0x12345678u;
  for (int i = 0; i < 20000; ++i) {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    const std::uint32_t addr = s % 1024;
    EXPECT_EQ(fast.Access(addr), ref.Access(addr)) << "access " << i;
  }
  EXPECT_EQ(fast.stats().hits, ref.stats().hits);
  EXPECT_EQ(fast.stats().misses, ref.stats().misses);
  for (std::uint32_t a = 0; a < 1024; a += 16) {
    EXPECT_EQ(fast.WayOf(a), ref.WayOf(a)) << "addr " << a;
  }
}

TEST(Cache, EvictionInvalidatesResidencyMapping) {
  Cache c(TinyCache());  // 4 sets x 2 ways; set-0 lines are 0x40 apart
  c.Access(0x000);
  EXPECT_NE(c.ResidentWay(0x000u >> c.line_shift()), nullptr);
  c.Access(0x040);
  c.Access(0x080);  // set 0 overflows: 0x000 is the LRU victim
  EXPECT_EQ(c.ResidentWay(0x000u >> c.line_shift()), nullptr);
  EXPECT_FALSE(c.Probe(0x000));
  // A stale mapping would short-circuit this into a phantom hit.
  const std::uint64_t misses = c.stats().misses;
  EXPECT_FALSE(c.Access(0x000));
  EXPECT_EQ(c.stats().misses, misses + 1);
}

// One deferred hit of the threaded core's run protocol: the run slot
// that makes it and the (resident) address it hits.
struct DeferredHit {
  int slot;
  std::uint32_t addr;
};

// Replays `hits` on two 4-way caches warmed with the four lines of set
// 0: `a` calls Access() per hit; `b` runs the threaded core's
// run protocol (cpu.h MemRuns) — each hit gets the number ++pend, a slot
// moving to another way first stamps its old way with its last hit, and
// closing stamps every slot's way in slot order, then commits. Both then
// take two fills into the full set. Stats, the way of every line and
// both victims must agree.
void ExpectDeferredMatchesAccess(const std::vector<DeferredHit>& hits) {
  // 4 sets x 4 ways x 16-byte lines: set-0 lines are 0x40 apart.
  const CacheConfig quad{256, 16, 4, 1};
  const std::uint32_t lines[] = {0x000, 0x040, 0x080, 0x0C0, 0x100, 0x140};
  Cache a(quad);
  Cache b(quad);
  for (int i = 0; i < 4; ++i) {
    a.Access(lines[i]);
    b.Access(lines[i]);
  }
  struct Run {
    Cache::Way* way = nullptr;
    std::uint64_t last = 0;
  } runs[4];
  std::uint64_t pend = 0;
  for (const DeferredHit& h : hits) {
    EXPECT_TRUE(a.Access(h.addr));
    Cache::Way* w = b.ResidentWay(h.addr >> b.line_shift());
    ASSERT_NE(w, nullptr) << h.addr;
    Run& r = runs[h.slot];
    if (r.way != w && r.last != 0) b.StampDeferred(r.way, r.last);
    r.way = w;
    r.last = ++pend;
  }
  for (const Run& r : runs) {
    if (r.last != 0) b.StampDeferred(r.way, r.last);
  }
  b.CommitDeferred(pend);
  for (const std::uint32_t fill : {lines[4], lines[5]}) {
    EXPECT_FALSE(a.Access(fill));
    EXPECT_FALSE(b.Access(fill));
    for (const std::uint32_t addr : lines) {
      EXPECT_EQ(a.WayOf(addr), b.WayOf(addr))
          << "addr " << addr << " after filling " << fill;
    }
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().misses, b.stats().misses);
}

TEST(Cache, DeferredHitsMatchAccessReplay) {
  // One run, five hits: the old single-run batching.
  ExpectDeferredMatchesAccess({{0, 0x040}, {0, 0x040}, {0, 0x040},
                               {0, 0x040}, {0, 0x040}});
  // Four runs on the four ways of one set, last hits in the reverse of
  // their slots' order: stamping in slot order would pick 0x000 and
  // 0x040 as the victims instead of 0x0C0 and 0x080.
  ExpectDeferredMatchesAccess({{3, 0x0C0}, {0, 0x000}, {1, 0x040},
                               {2, 0x080}, {3, 0x0C0}, {2, 0x080},
                               {1, 0x040}, {0, 0x000}});
  // Slots 2 and 0 share 0x040's way, the lower slot hitting last; slot 3
  // re-targets from 0x080 to 0x0C0. A close that lets slot 2 overwrite
  // slot 0's later stamp would make 0x040 the first victim.
  ExpectDeferredMatchesAccess({{2, 0x040}, {1, 0x000}, {3, 0x080},
                               {0, 0x040}, {3, 0x0C0}});
}

TEST(Cache, ReferencePathNeverOpensRuns) {
  Cache c(TinyCache());
  c.set_reference_path(true);
  c.Access(0x040);
  EXPECT_EQ(c.ResidentWay(0x040u >> c.line_shift()), nullptr);
}

TEST(Cache, ResidencySlotCollisionFallsBackToWalk) {
  // Two lines 8192 lines apart share a residency slot (the map is 8192
  // entries, direct-mapped). The loser of the slot must still hit through
  // the set walk — a collision costs speed, never correctness.
  Cache c(TinyCache());
  const std::uint32_t a = 0x000;
  const std::uint32_t b = a + (8192u << 4);  // same slot, same set, 2 ways
  c.Access(a);
  c.Access(b);
  EXPECT_TRUE(c.Access(a));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, BadConfigThrows) {
  EXPECT_THROW(Cache(CacheConfig{100, 24, 2, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{128, 16, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{0, 16, 2, 1}), std::invalid_argument);
}

TEST(Cache, DefaultTable4Geometry) {
  Cache l1(CacheConfig{64 * 1024, 64, 4, 1});
  EXPECT_EQ(l1.num_sets(), 256u);
  Cache l2(CacheConfig{512 * 1024, 64, 8, 8});
  EXPECT_EQ(l2.num_sets(), 1024u);
}

class HierarchyTest : public ::testing::Test {
 protected:
  Hierarchy::Config NoPrefetch() {
    Hierarchy::Config c;
    c.next_line_prefetch = false;
    return c;
  }
};

TEST_F(HierarchyTest, LatencyTiers) {
  Hierarchy h(NoPrefetch());
  const auto cfg = NoPrefetch();
  // Cold: L1 miss + L2 miss -> DRAM.
  EXPECT_EQ(h.Access(0x1000),
            cfg.l1.hit_latency + cfg.l2.hit_latency + cfg.dram_latency);
  // Warm: L1 hit.
  EXPECT_EQ(h.Access(0x1000), cfg.l1.hit_latency);
  EXPECT_EQ(h.dram_accesses(), 1u);
}

TEST_F(HierarchyTest, L2HitAfterL1Eviction) {
  Hierarchy::Config cfg = NoPrefetch();
  cfg.l1 = CacheConfig{128, 64, 1, 1};  // 2 sets, direct-mapped: tiny L1
  Hierarchy h(cfg);
  h.Access(0x0000);
  h.Access(0x0080);  // evicts 0x0000 from L1 (same set), stays in L2
  EXPECT_EQ(h.Access(0x0000), cfg.l1.hit_latency + cfg.l2.hit_latency);
}

TEST_F(HierarchyTest, RangeStraddlingTwoLines) {
  Hierarchy h(NoPrefetch());
  const std::uint32_t lat = h.AccessRange(60, 8);  // crosses 64B boundary
  // Two cold accesses.
  const auto cfg = NoPrefetch();
  EXPECT_EQ(lat, 2 * (cfg.l1.hit_latency + cfg.l2.hit_latency +
                      cfg.dram_latency));
}

TEST_F(HierarchyTest, PrefetchMakesNextLineHit) {
  Hierarchy::Config cfg;
  cfg.next_line_prefetch = true;
  Hierarchy h(cfg);
  h.Access(0x0000);                                // miss, prefetches 0x40
  EXPECT_EQ(h.Access(0x0040), cfg.l1.hit_latency);  // prefetched
}

TEST_F(HierarchyTest, SequentialStreamMostlyHitsWithPrefetch) {
  Hierarchy::Config cfg;
  cfg.next_line_prefetch = true;
  Hierarchy h(cfg);
  std::uint64_t total = 0;
  for (std::uint32_t a = 0; a < 64 * 64; a += 4) total += h.Access(a);
  // 64 lines; at most half should miss all the way to DRAM.
  EXPECT_LT(h.l1().stats().miss_rate(), 0.1);
}

}  // namespace
}  // namespace dsa::mem
