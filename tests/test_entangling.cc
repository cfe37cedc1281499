/**
 * @file
 * Behavioural tests of the Entangling prefetcher driven through its hook
 * interface with hand-crafted access sequences: basic-block detection,
 * latency-aware source selection, triggering, confidence lifecycle,
 * merging, the ablation variants and the paper's storage totals.
 */

#include <gtest/gtest.h>

#include <deque>

#include "check/invariants.hh"
#include "core/entangling.hh"
#include "sim/cache.hh"
#include "sim/dram.hh"

namespace eip::core {
namespace {

using sim::Addr;
using sim::CacheFillInfo;
using sim::CacheOperateInfo;
using sim::Cycle;

/**
 * Harness: attaches the prefetcher to a large host cache (so requested
 * prefetches land in its PQ where we can observe them) and offers helpers
 * to synthesize operate/fill events.
 */
class EntanglingTest : public ::testing::Test
{
  protected:
    EntanglingTest()
        : hostCfg(makeHostConfig()), host(hostCfg), dram(100, 0)
    {
        host.setDram(&dram);
    }

    static sim::CacheConfig
    makeHostConfig()
    {
        sim::CacheConfig cfg;
        cfg.sizeBytes = 256 * 1024;
        cfg.ways = 8;
        cfg.mshrEntries = 64;
        cfg.pqEntries = 256;
        cfg.pqIssuePerCycle = 64; // drained only when a test ticks the host
        return cfg;
    }

    void
    attach(const EntanglingConfig &cfg)
    {
        pf = std::make_unique<EntanglingPrefetcher>(cfg);
        pf->attach(host);
    }

    /** Synthesize a demand access. */
    void
    access(Addr line, Cycle cycle, bool hit, bool hit_was_prefetch = false,
           bool late = false, Cycle prefetch_issued = 0)
    {
        CacheOperateInfo info;
        info.line = line;
        info.triggerPc = line << 6;
        info.cycle = cycle;
        info.hit = hit;
        info.hitWasPrefetch = hit_was_prefetch;
        info.missLatePrefetch = late;
        info.prefetchIssueCycle = prefetch_issued;
        info.holdsMshr = !hit;
        pf->onCacheOperate(info);
    }

    /** Synthesize the fill completing a previous demand miss. */
    void
    fill(Addr line, Cycle cycle, bool by_prefetch = false,
         bool demand_happened = true)
    {
        CacheFillInfo info;
        info.line = line;
        info.cycle = cycle;
        info.byPrefetch = by_prefetch;
        info.demandHappened = demand_happened;
        pf->onCacheFill(info);
    }

    /** Synthesize an eviction of an unused prefetched line. */
    void
    evictUnused(Addr filled, Addr evicted, Cycle cycle)
    {
        CacheFillInfo info;
        info.line = filled;
        info.cycle = cycle;
        info.byPrefetch = false;
        info.demandHappened = true;
        info.evictedValid = true;
        info.evictedLine = evicted;
        info.evictedUnusedPrefetch = true;
        pf->onCacheFill(info);
    }

    uint64_t requested() const { return host.stats().prefetchRequested; }

    sim::CacheConfig hostCfg;
    sim::Cache host;
    sim::Dram dram;
    std::unique_ptr<EntanglingPrefetcher> pf;
};

TEST_F(EntanglingTest, PresetsMatchPaperParameters)
{
    EXPECT_EQ(EntanglingConfig::preset2K().tableEntries, 2048u);
    EXPECT_EQ(EntanglingConfig::preset2K().mergeDistance, 15u);
    EXPECT_EQ(EntanglingConfig::preset4K().mergeDistance, 6u);
    EXPECT_EQ(EntanglingConfig::preset8K().mergeDistance, 5u);
    EXPECT_EQ(EntanglingConfig::presetEpi().historyEntries, 1024u);
    EXPECT_EQ(EntanglingConfig::presetEpi().tableWays, 34u);
}

TEST_F(EntanglingTest, StorageMatchesPaperTotals)
{
    // Paper §III-C3/§IV-B: 20.87KB / 40.74KB / 77.44KB (virtual) and
    // 16.59KB / 32.21KB / 63.40KB (physical).
    attach(EntanglingConfig::preset2K());
    EXPECT_NEAR(pf->storageBits() / 8.0 / 1024.0, 20.87, 0.05);
    attach(EntanglingConfig::preset4K());
    EXPECT_NEAR(pf->storageBits() / 8.0 / 1024.0, 40.74, 0.05);
    attach(EntanglingConfig::preset2K(true));
    EXPECT_NEAR(pf->storageBits() / 8.0 / 1024.0, 16.59, 0.40);
    attach(EntanglingConfig::preset4K(true));
    EXPECT_NEAR(pf->storageBits() / 8.0 / 1024.0, 32.21, 0.40);
}

TEST_F(EntanglingTest, NamesEncodeConfiguration)
{
    attach(EntanglingConfig::preset4K());
    EXPECT_EQ(pf->name(), "Entangling-4K");
    attach(EntanglingConfig::preset2K(true));
    EXPECT_EQ(pf->name(), "Entangling-2K-phys");
    EntanglingConfig bb = EntanglingConfig::preset4K();
    bb.variant = EntanglingVariant::BB;
    attach(bb);
    EXPECT_EQ(pf->name(), "BB-4K");
    attach(EntanglingConfig::presetEpi());
    EXPECT_EQ(pf->name(), "EPI-8K");
}

TEST_F(EntanglingTest, DetectsBasicBlocksAndRecordsSizes)
{
    attach(EntanglingConfig::preset4K());
    // Block A: lines 100,101,102; then jump to 200 (new block).
    access(100, 10, true);
    access(101, 11, true);
    access(102, 12, true);
    access(200, 20, true); // completes block A
    const EntangledEntry *a = pf->table().find(100);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->bbSize, 2u);
}

TEST_F(EntanglingTest, EntanglesWithLatencyMatchedSource)
{
    attach(EntanglingConfig::preset4K());
    // Heads at cycles 100 (line 10), 200 (line 20), 300 (line 30). Then
    // line 40 misses at cycle 400 and fills at 550 (latency 150): the
    // source must be a head at least 150 cycles before 400, i.e. line 20
    // (cycle 200), not line 30 (cycle 300).
    access(10, 100, true);
    access(20, 200, true);
    access(30, 300, true);
    access(40, 400, false);
    fill(40, 550);

    EntangledTable &table = pf->mutableTable();
    EntangledEntry *src = table.find(20);
    ASSERT_NE(src, nullptr);
    EXPECT_NE(src->dests.find(40), nullptr);
    EXPECT_EQ(table.find(30) == nullptr
                  ? nullptr
                  : table.find(30)->dests.find(40),
              nullptr);
    EXPECT_EQ(pf->analysis().pairsCreated, 1u);
}

TEST_F(EntanglingTest, FallsBackToOldestSourceForHugeLatency)
{
    attach(EntanglingConfig::preset4K());
    access(10, 100, true);
    access(20, 150, true);
    access(40, 200, false);
    fill(40, 1000); // latency 800: nothing old enough
    EntangledTable &table = pf->mutableTable();
    EntangledEntry *oldest = table.find(10);
    ASSERT_NE(oldest, nullptr);
    EXPECT_NE(oldest->dests.find(40), nullptr);
}

TEST_F(EntanglingTest, TriggersSourceBlockAndDestinationBlock)
{
    attach(EntanglingConfig::preset4K());
    EntangledTable &table = pf->mutableTable();
    // Source 10 with a 2-line block; destination 40 with a 3-line block.
    table.recordBasicBlock(10, 2);
    table.recordBasicBlock(40, 3);
    ASSERT_TRUE(table.addPair(10, 40, false));

    uint64_t before = requested();
    access(10, 5000, true);
    // Expect: 11,12 (own block) + 40,41,42,43 (dst block) = 6 requests.
    EXPECT_EQ(requested() - before, 6u);
    EXPECT_EQ(pf->analysis().tableHits, 1u);
}

TEST_F(EntanglingTest, DeadPairsAreNotPrefetched)
{
    attach(EntanglingConfig::preset4K());
    EntangledTable &table = pf->mutableTable();
    table.recordBasicBlock(10, 0);
    ASSERT_TRUE(table.addPair(10, 40, false));
    table.find(10)->dests.find(40)->confidence.set(0);
    uint64_t before = requested();
    access(10, 5000, true);
    EXPECT_EQ(requested() - before, 0u);
}

TEST_F(EntanglingTest, ConfidenceLifecycle)
{
    attach(EntanglingConfig::preset4K());
    EntangledTable &table = pf->mutableTable();
    table.recordBasicBlock(10, 0);
    ASSERT_TRUE(table.addPair(10, 40, false));
    Destination *dst = table.find(10)->dests.find(40);
    ASSERT_NE(dst, nullptr);
    EXPECT_EQ(dst->confidence.value(), 3u);

    // Trigger the prefetch (records the source attribution), then report
    // a timely use: confidence saturates at 3.
    access(10, 100, true);
    access(40, 150, true, /*hit_was_prefetch=*/true);
    EXPECT_EQ(dst->confidence.value(), 3u);
    EXPECT_EQ(pf->analysis().timelyUpdates, 1u);

    // Late prefetch: confidence decremented. Drain the host PQ first so
    // the re-triggered request is accepted (attribution re-armed).
    host.tick(200);
    access(10, 300, true);
    access(40, 310, false, false, /*late=*/true);
    EXPECT_EQ(dst->confidence.value(), 2u);
    fill(40, 350);

    // Wrong prefetch (evicted unused): decremented again.
    host.tick(400);
    access(10, 500, true);
    evictUnused(/*filled=*/99, /*evicted=*/40, 600);
    EXPECT_EQ(dst->confidence.value(), 1u);
    EXPECT_EQ(pf->analysis().lateUpdates, 1u);
    EXPECT_EQ(pf->analysis().wrongUpdates, 1u);
}

TEST_F(EntanglingTest, BodyLinesCarryPairAttributionWithFloor)
{
    // Destination-block body lines are charged to the (src, dst-head)
    // pair: a wrong body prefetch demotes the pair — but only down to
    // confidence 1. Killing (and freeing the slot via the dead-dest
    // sweep) is reserved for the head itself going wrong.
    attach(EntanglingConfig::preset4K());
    EntangledTable &table = pf->mutableTable();
    table.recordBasicBlock(10, 0);
    table.recordBasicBlock(40, 2); // dst block: 40, 41, 42
    ASSERT_TRUE(table.addPair(10, 40, false));
    Destination *dst = table.find(10)->dests.find(40);
    ASSERT_NE(dst, nullptr);
    EXPECT_EQ(dst->confidence.value(), 3u);

    // Body line 41 evicted unused: the pair is demoted, 3 -> 2.
    access(10, 100, true);
    evictUnused(/*filled=*/99, /*evicted=*/41, 150);
    EXPECT_EQ(dst->confidence.value(), 2u);

    // Again (re-trigger to re-arm the attribution): 2 -> 1.
    host.tick(200);
    access(10, 300, true);
    evictUnused(99, 42, 350);
    EXPECT_EQ(dst->confidence.value(), 1u);

    // Floor: another wrong body line cannot take the pair to 0.
    host.tick(400);
    access(10, 500, true);
    evictUnused(99, 41, 550);
    EXPECT_EQ(dst->confidence.value(), 1u);
    EXPECT_NE(table.find(10)->dests.find(40), nullptr);

    // The head itself going wrong kills the pair, and the dead-dest
    // sweep frees its slot immediately.
    host.tick(600);
    access(10, 700, true);
    evictUnused(99, 40, 750);
    EXPECT_EQ(table.find(10)->dests.find(40), nullptr);
}

TEST_F(EntanglingTest, LatePrefetchUsesIssueTimestampForLatency)
{
    attach(EntanglingConfig::preset4K());
    // Heads: line 10 at cycle 100, line 20 at cycle 460.
    access(10, 100, true);
    access(20, 460, true);
    // A prefetch for line 40 was issued at cycle 200 (PQ timestamp);
    // the demand for 40 at 500 finds it in flight (late); fill at 520.
    access(40, 500, false, false, /*late=*/true, /*prefetch_issued=*/200);
    fill(40, 520, /*by_prefetch=*/true, /*demand_happened=*/true);
    // Latency = 520 - 200 = 320; source must be >= 320 cycles before the
    // demand (cycle 500) -> head 10 (cycle 100), not head 20 (cycle 460).
    EntangledTable &table = pf->mutableTable();
    ASSERT_NE(table.find(10), nullptr);
    EXPECT_NE(table.find(10)->dests.find(40), nullptr);
}

TEST_F(EntanglingTest, MergesOverlappingBasicBlocks)
{
    EntanglingConfig cfg = EntanglingConfig::preset4K();
    cfg.mergeDistance = 6;
    attach(cfg);
    // Sequence ABC X CD (paper §III-B2): block at 100..102, an unrelated
    // block at 500, then a block 102..103 that overlaps the first: the
    // first block's size must be extended and no new block recorded.
    access(100, 10, true);
    access(101, 11, true);
    access(102, 12, true);
    access(500, 20, true); // completes 100..102 (size 2)
    access(102, 30, true); // completes 500 (size 0); head 102
    access(103, 31, true);
    access(700, 40, true); // completes 102..103 -> merge into block 100

    const EntangledEntry *merged = pf->table().find(100);
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->bbSize, 3u); // 100..103
    EXPECT_GE(pf->analysis().merges, 1u);
    // The merged block head was not recorded as its own source.
    EXPECT_EQ(pf->table().find(102), nullptr);
}

TEST_F(EntanglingTest, VariantBbDoesNotEntangle)
{
    EntanglingConfig cfg = EntanglingConfig::preset4K();
    cfg.variant = EntanglingVariant::BB;
    attach(cfg);
    access(10, 100, true);
    access(40, 400, false);
    fill(40, 550);
    // No pairs in the whole table.
    uint64_t pairs = 0;
    pf->table().forEach([&](const EntangledEntry &e) {
        pairs += e.dests.size();
    });
    EXPECT_EQ(pairs, 0u);
}

TEST_F(EntanglingTest, VariantBbEntPrefetchesDstLineOnly)
{
    EntanglingConfig cfg = EntanglingConfig::preset4K();
    cfg.variant = EntanglingVariant::BBEnt;
    attach(cfg);
    EntangledTable &table = pf->mutableTable();
    table.recordBasicBlock(10, 0);
    table.recordBasicBlock(40, 5); // dst block size must be ignored
    ASSERT_TRUE(table.addPair(10, 40, false));
    uint64_t before = requested();
    access(10, 100, true);
    EXPECT_EQ(requested() - before, 1u); // just line 40
}

TEST_F(EntanglingTest, VariantEntTracksEveryLine)
{
    EntanglingConfig cfg = EntanglingConfig::preset4K();
    cfg.variant = EntanglingVariant::Ent;
    attach(cfg);
    // Lines 100 and 101 are consecutive, but Ent does not form blocks:
    // both are history entries and a miss on 103 entangles with one.
    access(100, 10, true);
    access(101, 20, true);
    access(103, 30, false);
    fill(103, 45);
    EntangledTable &table = pf->mutableTable();
    bool paired = false;
    table.forEach([&](const EntangledEntry &e) {
        paired |= e.dests.size() > 0;
    });
    EXPECT_TRUE(paired);
}

TEST_F(EntanglingTest, RepeatedAccessWithinBlockDoesNotSplitIt)
{
    attach(EntanglingConfig::preset4K());
    access(100, 10, true);
    access(101, 11, true);
    access(100, 12, true); // loop back inside the block
    access(101, 13, true);
    access(102, 14, true);
    access(900, 20, true); // completes 100..102
    const EntangledEntry *e = pf->table().find(100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->bbSize, 2u);
    // No block was recorded at 101.
    EXPECT_EQ(pf->table().find(101), nullptr);
}

TEST_F(EntanglingTest, AnalysisHistogramsPopulate)
{
    attach(EntanglingConfig::preset4K());
    EntangledTable &table = pf->mutableTable();
    table.recordBasicBlock(10, 2);
    table.recordBasicBlock(40, 1);
    ASSERT_TRUE(table.addPair(10, 40, false));
    access(10, 100, true);
    const EntanglingStats &a = pf->analysis();
    EXPECT_EQ(a.destsPerHit.total(), 1u);
    EXPECT_DOUBLE_EQ(a.destsPerHit.average(), 1.0);
    EXPECT_DOUBLE_EQ(a.currentBbSize.average(), 2.0);
    EXPECT_DOUBLE_EQ(a.dstBbSize.average(), 1.0);
    EXPECT_EQ(a.extraSearches, 1u);
}

TEST_F(EntanglingTest, SecondSourceUsedWhenFirstIsFull)
{
    attach(EntanglingConfig::preset4K());
    EntangledTable &table = pf->mutableTable();
    // Heads at 10 (cycle 100) and 20 (cycle 200); saturate head 20's
    // destination array so the pair must fall through to head 10.
    access(10, 100, true);
    access(20, 200, true);
    for (sim::Addr d = 1; d <= 6; ++d)
        ASSERT_TRUE(table.addPair(20, 20 + d, false));
    access(40, 260, false);
    fill(40, 300); // latency 40: head 20 (age 60) qualifies but is full
    EXPECT_GE(pf->analysis().secondSourceUses, 1u);
    ASSERT_NE(table.find(10), nullptr);
    EXPECT_NE(table.find(10)->dests.find(40), nullptr);
}

TEST_F(EntanglingTest, PhysicalSchemeConstrainsDestinations)
{
    attach(EntanglingConfig::preset4K(/*physical=*/true));
    // Pairs whose delta exceeds Table II's 42 address bits are rejected.
    access(0x100, 100, true);
    access(0x100 + (sim::Addr{1} << 50), 400, false);
    fill(0x100 + (sim::Addr{1} << 50), 500);
    uint64_t pairs = 0;
    pf->table().forEach([&](const EntangledEntry &e) {
        pairs += e.dests.size();
        // Any stored destination obeys the physical widths.
        for (const auto &d : e.dests.all())
            EXPECT_LE(d.bitsNeeded, 42u);
    });
    EXPECT_EQ(pairs, 0u);

    // A representable destination is accepted and capped at 4 per entry.
    attach(EntanglingConfig::preset4K(true));
    access(0x200, 100, true);
    access(0x240, 400, false);
    fill(0x240, 480);
    EntangledTable &table = pf->mutableTable();
    EntangledEntry *src = table.find(0x200);
    ASSERT_NE(src, nullptr);
    EXPECT_EQ(src->dests.scheme().maxDests, 4u);
}

TEST_F(EntanglingTest, SplitTablesTrackSizesSeparately)
{
    EntanglingConfig cfg = EntanglingConfig::presetSplit();
    attach(cfg);
    EXPECT_EQ(pf->name(), "Entangling-split-1K");
    // A completed basic block lands in the side table, not the pairs
    // table, yet still drives block prefetching on the next head access.
    access(100, 10, true);
    access(101, 11, true);
    access(102, 12, true);
    access(500, 20, true); // completes 100..102
    EXPECT_EQ(pf->table().find(100), nullptr); // no pairs entry
    uint64_t before = requested();
    access(100, 30, true);
    EXPECT_EQ(requested() - before, 2u); // lines 101, 102 from the side table
}

TEST_F(EntanglingTest, SplitStorageCheaperThanUnifiedAtSameReach)
{
    EntanglingConfig unified = EntanglingConfig::preset2K();
    EntanglingConfig split = EntanglingConfig::presetSplit();
    EntanglingPrefetcher u(unified), v(split);
    // The split preset tracks 2x the basic blocks (4K vs 2K entries)
    // within a smaller total budget.
    EXPECT_LT(v.storageBits(), u.storageBits());
}

TEST_F(EntanglingTest, CommitTimeTrainingIgnoresSpeculativeEvents)
{
    EntanglingConfig cfg = EntanglingConfig::preset4K();
    cfg.commitTimeTraining = true;
    attach(cfg);
    sim::CacheOperateInfo op;
    op.line = 123;
    op.cycle = 50;
    op.hit = false;
    op.speculative = true;
    pf->onCacheOperate(op);
    fill(123, 200);
    // Nothing was trained: no history, no pairs, no table entries.
    uint64_t entries = 0;
    pf->table().forEach([&](const EntangledEntry &) { ++entries; });
    EXPECT_EQ(entries, 0u);
    EXPECT_EQ(pf->analysis().pairsCreated, 0u);
}

TEST(EntanglingWrongPath, MissesWithoutMshrLeaveLiveMissesAlone)
{
    // Two MSHRs and a slow memory: two demand misses fill the MSHRs, and
    // a storm of wrong-path misses finds none free. Those misses hold no
    // MSHR, so no fill will ever retire them; if they were recorded as
    // pending misses, the shadow state would grow without bound, and any
    // wholesale prune would take the live demand misses with it.
    sim::CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    cfg.ways = 8;
    cfg.mshrEntries = 2;
    cfg.pqEntries = 32;
    sim::Cache l1i(cfg);
    sim::Dram dram(200, 0);
    l1i.setDram(&dram);
    EntanglingPrefetcher pf(EntanglingConfig::preset4K());
    l1i.attachPrefetcher(&pf);
    check::Invariants inv;
    pf.registerInvariants(inv);

    const Addr a = 0x1000, b = 0x2000, c = 0x3000;
    l1i.demandAccess(a, a << 6, 0);
    l1i.tick(300);
    // B misses 300 cycles after head A; its fill lands at 500.
    l1i.demandAccess(b, b << 6, 300);
    l1i.demandAccess(c, c << 6, 301);
    ASSERT_EQ(l1i.freeMshrs(), 0u);
    for (Addr i = 0; i < 120000; ++i) {
        Addr line = 0x100000 + 2 * i;
        l1i.speculativeAccess(line, line << 6, 302);
    }
    EXPECT_FALSE(inv.firstFailure().has_value());

    // B's fill learns its pair: A ran 300 cycles before the 200-cycle
    // miss, so A is the source.
    l1i.tick(600);
    EntangledEntry *src = pf.mutableTable().find(a);
    ASSERT_NE(src, nullptr);
    EXPECT_NE(src->dests.find(b), nullptr);
    EXPECT_FALSE(inv.firstFailure().has_value());
}

} // namespace
} // namespace eip::core
