/**
 * @file
 * Tests for the non-blocking cache model: hits/misses, LRU replacement,
 * MSHR allocation/merging, prefetch queue behaviour, fill/evict callbacks,
 * prefetch usefulness classification, and the ideal-hit mode.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cache.hh"
#include "sim/dram.hh"

namespace eip::sim {
namespace {

CacheConfig
tinyL1(uint32_t size_bytes = 4096, uint32_t ways = 2)
{
    CacheConfig cfg;
    cfg.name = "L1";
    cfg.sizeBytes = size_bytes;
    cfg.ways = ways;
    cfg.hitLatency = 4;
    cfg.mshrEntries = 4;
    cfg.pqEntries = 8;
    cfg.pqIssuePerCycle = 2;
    cfg.pfMshrReserve = 1;
    return cfg;
}

/** A cache wired straight to DRAM. */
struct Rig
{
    Dram dram{100, 0}; // fixed 100-cycle memory, no jitter
    Cache cache;

    explicit Rig(const CacheConfig &cfg) : cache(cfg)
    {
        cache.setDram(&dram);
    }
};

/** Hook recorder. */
class RecordingPrefetcher : public Prefetcher
{
  public:
    std::string name() const override { return "recorder"; }
    uint64_t storageBits() const override { return 0; }

    void
    onCacheOperate(const CacheOperateInfo &info) override
    {
        operates.push_back(info);
    }

    void
    onCacheFill(const CacheFillInfo &info) override
    {
        fills.push_back(info);
    }

    std::vector<CacheOperateInfo> operates;
    std::vector<CacheFillInfo> fills;
};

TEST(Cache, MissThenHit)
{
    Rig rig(tinyL1());
    auto miss = rig.cache.demandAccess(0x100, 0x4000, 10);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.ready, 110u); // DRAM latency

    // Before the fill: merge into the same MSHR.
    auto merge = rig.cache.demandAccess(0x100, 0x4000, 20);
    EXPECT_FALSE(merge.hit);
    EXPECT_EQ(merge.ready, 110u);
    EXPECT_EQ(rig.cache.stats().mshrMerges, 1u);

    // After the fill: hit.
    auto hit = rig.cache.demandAccess(0x100, 0x4000, 120);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.ready, 124u);
    EXPECT_EQ(rig.cache.stats().demandMisses, 2u);
    EXPECT_EQ(rig.cache.stats().demandHits, 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, map three lines to the same set; sets = 4096/64/2 = 32.
    Rig rig(tinyL1());
    Addr a = 1, b = 1 + 32, c = 1 + 64; // same set index

    rig.cache.demandAccess(a, 0, 0);
    rig.cache.demandAccess(b, 0, 1);
    rig.cache.tick(200); // fill both
    EXPECT_TRUE(rig.cache.probe(a));
    EXPECT_TRUE(rig.cache.probe(b));

    // Touch a so b becomes LRU, then bring in c.
    rig.cache.demandAccess(a, 0, 210);
    rig.cache.demandAccess(c, 0, 220);
    rig.cache.tick(400);
    EXPECT_TRUE(rig.cache.probe(a));
    EXPECT_FALSE(rig.cache.probe(b));
    EXPECT_TRUE(rig.cache.probe(c));
    EXPECT_EQ(rig.cache.stats().evictions, 1u);
}

TEST(Cache, MshrExhaustionRejectsDemand)
{
    Rig rig(tinyL1());
    for (Addr line = 0; line < 4; ++line) {
        auto res = rig.cache.demandAccess(line * 64, 0, 0);
        EXPECT_FALSE(res.mshrFull);
    }
    auto rejected = rig.cache.demandAccess(0x999, 0, 0);
    EXPECT_TRUE(rejected.mshrFull);
    // Rejected accesses are not recorded in the statistics.
    EXPECT_EQ(rig.cache.stats().demandAccesses, 4u);

    // After fills the MSHRs free up.
    rig.cache.tick(200);
    auto ok = rig.cache.demandAccess(0x999, 0, 200);
    EXPECT_FALSE(ok.mshrFull);
}

TEST(Cache, PrefetchLifecycleUsefulAndWrong)
{
    Rig rig(tinyL1());
    RecordingPrefetcher rec;
    rig.cache.attachPrefetcher(&rec);

    EXPECT_TRUE(rig.cache.enqueuePrefetch(0x10));
    rig.cache.tick(1); // issues the prefetch
    EXPECT_EQ(rig.cache.stats().prefetchIssued, 1u);

    rig.cache.tick(200); // fill
    ASSERT_EQ(rec.fills.size(), 1u);
    EXPECT_TRUE(rec.fills[0].byPrefetch);
    EXPECT_FALSE(rec.fills[0].demandHappened);

    // First demand access on the prefetched line: useful.
    auto hit = rig.cache.demandAccess(0x10, 0, 210);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(rig.cache.stats().usefulPrefetches, 1u);
    ASSERT_EQ(rec.operates.size(), 1u);
    EXPECT_TRUE(rec.operates[0].hitWasPrefetch);

    // Second access is a plain hit.
    rig.cache.demandAccess(0x10, 0, 220);
    EXPECT_EQ(rig.cache.stats().usefulPrefetches, 1u);
}

TEST(Cache, WrongPrefetchDetectedOnEviction)
{
    Rig rig(tinyL1());
    RecordingPrefetcher rec;
    rig.cache.attachPrefetcher(&rec);

    // Prefetch a line into a set, never touch it, then force two demand
    // fills into the same set (2 ways) to evict it.
    Addr pf = 2;
    rig.cache.enqueuePrefetch(pf);
    rig.cache.tick(1);
    rig.cache.tick(200);
    ASSERT_TRUE(rig.cache.probe(pf));

    rig.cache.demandAccess(pf + 32, 0, 201);
    rig.cache.demandAccess(pf + 64, 0, 202);
    rig.cache.tick(400);
    EXPECT_EQ(rig.cache.stats().wrongPrefetches, 1u);
    bool saw_wrong_evict = false;
    for (const auto &f : rec.fills)
        saw_wrong_evict |= f.evictedUnusedPrefetch && f.evictedLine == pf;
    EXPECT_TRUE(saw_wrong_evict);
}

TEST(Cache, LatePrefetchDetected)
{
    Rig rig(tinyL1());
    RecordingPrefetcher rec;
    rig.cache.attachPrefetcher(&rec);
    rig.cache.enqueuePrefetch(0x20);
    rig.cache.tick(1); // issue at cycle 1, fills at 101

    // Demand for the same line while the prefetch is in flight.
    auto res = rig.cache.demandAccess(0x20, 0, 50);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.ready, 101u);
    EXPECT_EQ(rig.cache.stats().latePrefetches, 1u);
    EXPECT_EQ(rig.cache.stats().demandMisses, 1u);
    // The merge hands the prefetcher the MSHR's issue cycle (the PQ
    // timestamp) and tells it the miss now holds that MSHR.
    ASSERT_EQ(rec.operates.size(), 1u);
    EXPECT_TRUE(rec.operates[0].missLatePrefetch);
    EXPECT_EQ(rec.operates[0].prefetchIssueCycle, 1u);
    EXPECT_TRUE(rec.operates[0].holdsMshr);
}

TEST(Cache, PrefetchFilteredWhenCached)
{
    Rig rig(tinyL1());
    rig.cache.demandAccess(0x30, 0, 0);
    rig.cache.tick(200);
    rig.cache.enqueuePrefetch(0x30);
    rig.cache.tick(201);
    EXPECT_EQ(rig.cache.stats().prefetchIssued, 0u);
    EXPECT_EQ(rig.cache.stats().prefetchFiltered, 1u);
}

TEST(Cache, PrefetchQueueDuplicateAndOverflow)
{
    Rig rig(tinyL1());
    EXPECT_TRUE(rig.cache.enqueuePrefetch(1));
    EXPECT_FALSE(rig.cache.enqueuePrefetch(1)); // duplicate
    for (Addr line = 2; line <= 8; ++line)
        rig.cache.enqueuePrefetch(line);
    EXPECT_EQ(rig.cache.pqOccupancy(), 8u);
    EXPECT_FALSE(rig.cache.enqueuePrefetch(99)); // overflow
    EXPECT_GE(rig.cache.stats().prefetchDroppedFull, 1u);
}

TEST(Cache, PrefetchIssueRateLimited)
{
    Rig rig(tinyL1());
    for (Addr line = 1; line <= 6; ++line)
        rig.cache.enqueuePrefetch(line);
    rig.cache.tick(1);
    EXPECT_EQ(rig.cache.stats().prefetchIssued, 2u); // pqIssuePerCycle
    rig.cache.tick(2);
    // MSHR reserve (1 of 4) caps outstanding prefetches at 3.
    EXPECT_EQ(rig.cache.stats().prefetchIssued, 3u);
}

TEST(Cache, PrefetchReserveKeepsDemandSlots)
{
    Rig rig(tinyL1());
    for (Addr line = 1; line <= 6; ++line)
        rig.cache.enqueuePrefetch(line);
    rig.cache.tick(1);
    rig.cache.tick(2);
    EXPECT_GE(rig.cache.freeMshrs(), 1u);
    auto demand = rig.cache.demandAccess(0x500, 0, 3);
    EXPECT_FALSE(demand.mshrFull);
}

TEST(Cache, IdealModeAlwaysHitsButPollutes)
{
    CacheConfig cfg = tinyL1();
    cfg.idealHit = true;
    Rig rig(cfg);
    auto res = rig.cache.demandAccess(0x40, 0, 0);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.ready, 4u);
    EXPECT_EQ(rig.cache.stats().demandMisses, 0u);
    // The request was still forwarded below.
    EXPECT_EQ(rig.dram.accesses(), 1u);
    EXPECT_EQ(rig.cache.stats().prefetchIssued, 1u);
    // The line is installed: no second forward.
    rig.cache.demandAccess(0x40, 0, 10);
    EXPECT_EQ(rig.dram.accesses(), 1u);
}

TEST(Cache, TwoLevelLatencyComposition)
{
    CacheConfig l1 = tinyL1();
    CacheConfig l2 = tinyL1(16384, 4);
    l2.hitLatency = 14;
    Dram dram(100, 0);
    Cache c1(l1), c2(l2);
    c1.setNextLevel(&c2);
    c2.setDram(&dram);

    // Cold: L1 miss, L2 miss -> DRAM.
    auto cold = c1.demandAccess(0x60, 0, 0);
    EXPECT_EQ(cold.ready, 100u);

    // Warm the L2 only: evict from L1 by filling its set.
    c1.tick(200);
    Addr same_set1 = 0x60 + 32, same_set2 = 0x60 + 64;
    c1.demandAccess(same_set1, 0, 201);
    c1.demandAccess(same_set2, 0, 202);
    c1.tick(500);
    ASSERT_FALSE(c1.probe(0x60));

    // Now: L1 miss, L2 hit -> 14 cycles.
    auto warm = c1.demandAccess(0x60, 0, 600);
    EXPECT_FALSE(warm.hit);
    EXPECT_EQ(warm.ready, 614u);
}

TEST(Cache, StatsDerivedMetrics)
{
    CacheStats s;
    s.demandAccesses = 100;
    s.demandMisses = 20;
    s.usefulPrefetches = 30;
    s.prefetchIssued = 60;
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.2);
    EXPECT_DOUBLE_EQ(s.coverage(), 0.6);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.5);

    // A late prefetch is recorded inside demandMisses but the demand
    // merged into an in-flight prefetch: it leaves the would-be-miss
    // denominator (30 / (30 + 20 - 5)), it does not shrink the numerator.
    s.latePrefetches = 5;
    EXPECT_EQ(s.uncoveredMisses(), 15u);
    EXPECT_DOUBLE_EQ(s.coverage(), 30.0 / 45.0);

    CacheStats zero;
    EXPECT_DOUBLE_EQ(zero.missRatio(), 0.0);
    EXPECT_DOUBLE_EQ(zero.coverage(), 0.0);
    EXPECT_DOUBLE_EQ(zero.accuracy(), 0.0);
}

TEST(Cache, MissLatencyHistogramDerivedBuckets)
{
    CacheStats s;
    s.missLatency.record(0);                 // short
    s.missLatency.record(kMissShortMax);     // short (inclusive bound)
    s.missLatency.record(kMissShortMax + 1); // medium
    s.missLatency.record(kMissMediumMax);    // medium (inclusive bound)
    s.missLatency.record(kMissMediumMax + 1);// long
    s.missLatency.record(kMissLatencyBuckets + 50); // long (overflow)
    EXPECT_EQ(s.missesShort(), 2u);
    EXPECT_EQ(s.missesMedium(), 2u);
    EXPECT_EQ(s.missesLong(), 2u);
}

TEST(Cache, FillHookReportsEvictionInfo)
{
    Rig rig(tinyL1());
    RecordingPrefetcher rec;
    rig.cache.attachPrefetcher(&rec);
    // Fill a set (2 ways) plus one more to force an eviction of a
    // demand-fetched (used) line.
    rig.cache.demandAccess(3, 0, 0);
    rig.cache.demandAccess(3 + 32, 0, 1);
    rig.cache.tick(200);
    rig.cache.demandAccess(3 + 64, 0, 201);
    rig.cache.tick(400);
    ASSERT_EQ(rec.fills.size(), 3u);
    EXPECT_TRUE(rec.fills[2].evictedValid);
    EXPECT_FALSE(rec.fills[2].evictedUnusedPrefetch);
}

} // namespace
} // namespace eip::sim
