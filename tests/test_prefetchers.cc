/**
 * @file
 * Tests for the baseline prefetchers (NextLine, SN4L, MANA, RDIP, D-JOLT,
 * FNL+MMA, the look-ahead prefetcher and oracle) and the factory.
 */

#include <gtest/gtest.h>

#include "obs/registry.hh"
#include "prefetch/djolt.hh"
#include "prefetch/factory.hh"
#include "prefetch/fnl_mma.hh"
#include "prefetch/lookahead.hh"
#include "prefetch/mana.hh"
#include "prefetch/nextline.hh"
#include "prefetch/pif.hh"
#include "prefetch/rdip.hh"
#include "prefetch/sn4l.hh"
#include "prefetch/stride.hh"
#include "sim/cache.hh"
#include "sim/dram.hh"

namespace eip::prefetch {
namespace {

using sim::Addr;
using sim::CacheFillInfo;
using sim::CacheOperateInfo;
using sim::Cycle;
using trace::BranchType;

/** Host cache whose PQ records the requests. */
struct Host
{
    sim::CacheConfig cfg;
    sim::Cache cache;
    sim::Dram dram{100, 0};

    Host() : cfg(makeCfg()), cache(cfg) { cache.setDram(&dram); }

    static sim::CacheConfig
    makeCfg()
    {
        sim::CacheConfig c;
        c.sizeBytes = 64 * 1024;
        c.ways = 8;
        c.mshrEntries = 32;
        c.pqEntries = 512;
        c.pqIssuePerCycle = 0; // keep requests queued for inspection
        return c;
    }

    uint64_t requested() const { return cache.stats().prefetchRequested; }
};

CacheOperateInfo
op(Addr line, Cycle cycle, bool hit)
{
    CacheOperateInfo info;
    info.line = line;
    info.triggerPc = line << 6;
    info.cycle = cycle;
    info.hit = hit;
    return info;
}

TEST(NextLine, PrefetchesSuccessor)
{
    Host host;
    NextLinePrefetcher pf;
    pf.attach(host.cache);
    pf.onCacheOperate(op(100, 1, true));
    EXPECT_EQ(host.requested(), 1u);
    EXPECT_EQ(pf.storageBits(), 0u);
    EXPECT_EQ(pf.name(), "NextLine");
}

TEST(Sn4l, TrainsOnMissesAndFiltersUnworthyLines)
{
    Host host;
    Sn4lPrefetcher pf;
    pf.attach(host.cache);

    // Untrained: nothing is worth prefetching.
    pf.onCacheOperate(op(100, 1, true));
    EXPECT_EQ(host.requested(), 0u);

    // A miss on line 101 marks it worthy; accessing 100 prefetches it.
    pf.onCacheOperate(op(101, 2, false));
    pf.onCacheOperate(op(100, 3, true));
    EXPECT_EQ(host.requested(), 1u);

    // A wrong prefetch clears the bit again.
    CacheFillInfo evict;
    evict.line = 999;
    evict.evictedValid = true;
    evict.evictedLine = 101;
    evict.evictedUnusedPrefetch = true;
    pf.onCacheFill(evict);
    uint64_t before = host.requested();
    pf.onCacheOperate(op(100, 5, true));
    EXPECT_EQ(host.requested(), before);
}

TEST(Sn4l, StorageMatchesPaperBudget)
{
    Sn4lPrefetcher pf;
    EXPECT_NEAR(pf.storageBits() / 8.0 / 1024.0, 2.06, 0.02);
}

TEST(Mana, LearnsRegionChainsAndPrefetchesAhead)
{
    Host host;
    ManaConfig cfg;
    cfg.entries = 1024;
    cfg.lookahead = 2;
    ManaPrefetcher pf(cfg);
    pf.attach(host.cache);

    // Train a recurring region sequence: 100 (with 101), 300, 500.
    for (int round = 0; round < 3; ++round) {
        pf.onCacheOperate(op(100, 1, true));
        pf.onCacheOperate(op(101, 2, true));
        pf.onCacheOperate(op(300, 3, true));
        pf.onCacheOperate(op(500, 4, true));
    }
    uint64_t before = host.requested();
    pf.onCacheOperate(op(100, 10, true));
    // Walks to region 300 and then 500 (plus footprints).
    EXPECT_GE(host.requested() - before, 2u);
    EXPECT_EQ(pf.name(), "MANA-1K");
}

TEST(Mana, StorageScalesWithEntries)
{
    ManaPrefetcher small(ManaConfig{2048, 4, 8, 3});
    ManaPrefetcher big(ManaConfig{8192, 4, 8, 3});
    EXPECT_LT(small.storageBits(), big.storageBits());
    EXPECT_NEAR(small.storageBits() / 8.0 / 1024.0, 9.3, 1.0);
}

TEST(Rdip, PrefetchesMissesSeenUnderSameSignature)
{
    Host host;
    RdipPrefetcher pf(RdipConfig{});
    pf.attach(host.cache);

    // Round 1: call A, misses on 700/701, return (commits the log).
    pf.onBranch(0x1000, BranchType::DirectCall, 0x2000);
    pf.onCacheOperate(op(700, 1, false));
    pf.onCacheOperate(op(701, 2, false));
    pf.onBranch(0x2100, BranchType::Return, 0x1004);

    // Round 2: the same call recreates the signature and prefetches.
    uint64_t before = host.requested();
    pf.onBranch(0x1000, BranchType::DirectCall, 0x2000);
    EXPECT_GE(host.requested() - before, 1u);
}

TEST(Rdip, StorageNearPaperBudget)
{
    RdipPrefetcher pf(RdipConfig{});
    EXPECT_NEAR(pf.storageBits() / 8.0 / 1024.0, 63.0, 4.0);
}

TEST(Djolt, WindowedSignaturesRecur)
{
    Host host;
    DjoltConfig cfg;
    cfg.shortRange.lookaheadCalls = 1;
    cfg.longRange.lookaheadCalls = 2;
    DjoltPrefetcher pf(cfg);
    pf.attach(host.cache);

    // A repeating call pattern; a miss one call after signature S must be
    // prefetched when S recurs.
    auto callRound = [&](bool expect_prefetch) {
        uint64_t before = host.requested();
        pf.onBranch(0x10, BranchType::DirectCall, 0x100);
        pf.onBranch(0x20, BranchType::DirectCall, 0x200);
        pf.onCacheOperate(op(900, 1, false));
        pf.onBranch(0x30, BranchType::Return, 0x14);
        pf.onBranch(0x40, BranchType::Return, 0x24);
        if (expect_prefetch) {
            EXPECT_GT(host.requested(), before);
        }
    };
    for (int warm = 0; warm < 6; ++warm)
        callRound(false);
    callRound(true);
}

TEST(FnlMma, FootprintNextLineStartsOptimistic)
{
    Host host;
    FnlMmaPrefetcher pf(FnlMmaConfig{});
    pf.attach(host.cache);
    pf.onCacheOperate(op(100, 1, true));
    // Default counters are weakly worth-prefetching: fnlDepth requests.
    EXPECT_EQ(host.requested(), 2u);
}

TEST(FnlMma, MissAheadChainPrefetchesFutureMisses)
{
    Host host;
    FnlMmaConfig cfg;
    cfg.missAhead = 2;
    cfg.chase = 1;
    FnlMmaPrefetcher pf(cfg);
    pf.attach(host.cache);

    // Recurring miss sequence: 10, 20, 30, 40 (sparse lines).
    for (int round = 0; round < 3; ++round) {
        pf.onCacheOperate(op(10, 1, false));
        pf.onCacheOperate(op(20, 2, false));
        pf.onCacheOperate(op(30, 3, false));
        pf.onCacheOperate(op(40, 4, false));
    }
    // On the next miss of 10 the chain predicts 30 (2 misses ahead).
    uint64_t before = host.requested();
    pf.onCacheOperate(op(10, 9, false));
    bool found = false;
    (void)before;
    // The request for line 30 is in the PQ among the FNL requests.
    // Verify via a probe request count: at least one request targets it.
    // (The PQ API does not expose contents; check the count grew by >= 1
    // beyond the 2 FNL next-lines.)
    found = host.requested() - before >= 3;
    EXPECT_TRUE(found);
}

TEST(Pif, ReplaysTemporalStream)
{
    Host host;
    PifConfig cfg;
    cfg.streamDepth = 3;
    PifPrefetcher pf(cfg);
    pf.attach(host.cache);

    // Record a recurring region stream: (10,+1) (50) (90,+2).
    auto stream = [&] {
        pf.onCacheOperate(op(10, 1, true));
        pf.onCacheOperate(op(11, 2, true));
        pf.onCacheOperate(op(50, 3, true));
        pf.onCacheOperate(op(90, 4, true));
        pf.onCacheOperate(op(91, 5, true));
        pf.onCacheOperate(op(92, 6, true));
        pf.onCacheOperate(op(300, 7, true)); // closes region 90
    };
    stream();
    stream();
    // The second pass hits the index at line 10 and replays the stream:
    // at least regions 50 and 90 (+footprints) are requested.
    EXPECT_GE(host.requested(), 4u);
}

TEST(Pif, StorageIsHighBudget)
{
    PifPrefetcher pf(PifConfig{});
    // PIF-scale: far beyond the paper's 64KB evaluation window.
    EXPECT_GT(pf.storageBits() / 8.0 / 1024.0, 128.0);
}

TEST(Lookahead, FollowsDiscontinuityChain)
{
    Host host;
    LookaheadPrefetcher pf(2);
    pf.attach(host.cache);
    // Discontinuity target sequence A(0x1000) B(0x2000) C(0x3000), twice.
    for (int round = 0; round < 2; ++round) {
        pf.onBranch(0x10, BranchType::DirectJump, 0x1000);
        pf.onBranch(0x1010, BranchType::DirectJump, 0x2000);
        pf.onBranch(0x2010, BranchType::DirectJump, 0x3000);
    }
    // On the next visit of A the chain 2 ahead is C.
    uint64_t before = host.requested();
    pf.onBranch(0x10, BranchType::DirectJump, 0x1000);
    EXPECT_GE(host.requested() - before, 1u);
    EXPECT_EQ(pf.name(), "Lookahead-2");
}

TEST(LookaheadOracle, MeasuresRequiredDistance)
{
    Host host;
    LookaheadOracle oracle;
    oracle.attach(host.cache);

    // Clock advances; discontinuities at cycles 100, 200, 300.
    oracle.onCycle(100);
    oracle.onBranch(0x10, BranchType::DirectJump, 0x1000);
    oracle.onCycle(200);
    oracle.onBranch(0x20, BranchType::DirectJump, 0x2000);
    oracle.onCycle(300);
    oracle.onBranch(0x30, BranchType::DirectJump, 0x3000);

    // A miss at cycle 310 filling at 460 (latency 150) needs a prefetch
    // before cycle 160: only the discontinuity at 100 (distance 3) is
    // early enough -> required distance 3.
    oracle.onCacheOperate(op(77, 310, false));
    CacheFillInfo fill_info;
    fill_info.line = 77;
    fill_info.cycle = 460;
    oracle.onCacheFill(fill_info);

    EXPECT_EQ(oracle.distanceHistogram().total(), 1u);
    EXPECT_LT(oracle.timelyFraction(2), 1.0);
    EXPECT_DOUBLE_EQ(oracle.timelyFraction(3), 1.0);
    // The oracle never issues prefetches.
    EXPECT_EQ(host.requested(), 0u);

    // Its gauges export the same fractions, d = 1..10.
    obs::CounterRegistry registry;
    oracle.registerStats(registry);
    obs::CounterDump dump = registry.dump();
    ASSERT_EQ(dump.gauges.size(), LookaheadOracle::kReportedDistances);
    for (unsigned d = 1; d <= LookaheadOracle::kReportedDistances; ++d)
        EXPECT_EQ(dump.gauge("lookahead.timely_d" + std::to_string(d)),
                  oracle.timelyFraction(d))
            << d;
}

TEST(Stride, DetectsConstantStride)
{
    Host host;
    StridePrefetcher pf(256, 2);
    pf.attach(host.cache);
    // PC 0x900 streams lines 10, 13, 16, 19... (stride 3).
    auto access = [&](Addr line) {
        CacheOperateInfo info;
        info.line = line;
        info.triggerPc = 0x900;
        info.hit = false;
        pf.onCacheOperate(info);
    };
    access(10);
    access(13); // learns stride 3
    access(16); // confidence 1
    access(19); // confidence 2 -> strong: prefetch 22, 25
    uint64_t before = host.requested();
    access(22);
    EXPECT_GE(host.requested(), before); // continues prefetching
    EXPECT_GE(host.requested(), 2u);
}

TEST(Stride, IgnoresRandomPattern)
{
    Host host;
    StridePrefetcher pf(256, 2);
    pf.attach(host.cache);
    Addr lines[] = {5, 90, 13, 44, 71, 20, 66, 3};
    for (Addr l : lines) {
        CacheOperateInfo info;
        info.line = l;
        info.triggerPc = 0x900;
        pf.onCacheOperate(info);
    }
    EXPECT_EQ(host.requested(), 0u);
}

TEST(Factory, CreatesEveryKnownId)
{
    const char *ids[] = {"nextline",      "sn4l",  "pif", "stride",
                         "mana-2k",
                         "mana-4k",       "mana-8k",       "rdip",
                         "djolt",         "fnl+mma",       "epi",
                         "entangling-2k", "entangling-4k", "entangling-8k",
                         "entangling-4k-phys", "bb-4k",    "bbent-4k",
                         "bbentbb-4k",    "ent-4k"};
    for (const char *id : ids) {
        auto pf = makePrefetcher(id);
        ASSERT_NE(pf, nullptr) << id;
        EXPECT_FALSE(pf->name().empty());
        EXPECT_GE(pf->storageBits(), 0u);
    }
    EXPECT_EQ(makePrefetcher("none"), nullptr);
    // "ideal" is a cache configuration the harness owns, not a prefetcher.
    EXPECT_FALSE(knownPrefetcherId("ideal"));
}

TEST(Factory, EveryListedIdBuildsAndIsKnown)
{
    EXPECT_EQ(prefetcherIds().front(), "none");
    EXPECT_EQ(prefetcherIds(Side::L1d),
              (std::vector<std::string>{"none", "stride"}));
    for (const std::string &id : prefetcherIds()) {
        EXPECT_TRUE(knownPrefetcherId(id)) << id;
        EXPECT_EQ(makePrefetcher(id) != nullptr, id != "none") << id;
    }
    for (const std::string &id : prefetcherIds(Side::L1d))
        EXPECT_TRUE(knownPrefetcherId(id, Side::L1d)) << id;
    // The two sides do not mix.
    EXPECT_FALSE(knownPrefetcherId("stride"));
    EXPECT_FALSE(knownPrefetcherId("djolt", Side::L1d));
    EXPECT_FALSE(knownPrefetcherId("entangling-4k", Side::L1d));
}

TEST(Factory, IdsAreExact)
{
    // Each of these once matched a family prefix and ran some other
    // configuration (entangling-16k ran Entangling-4K, bbq BB-4K).
    for (const char *id :
         {"entangling-16k", "bbq", "manatee", "mana", "entangling", "bb",
          "ent", "entangling-4k-physical", "bb-4k-phys", "lookahead-3",
          "lookahead", "Entangling-4K", "nextline ", "", "ideal", "stride",
          "l1i-64kb"})
        EXPECT_FALSE(knownPrefetcherId(id)) << "'" << id << "'";
    for (const char *id : {"", "stride-l1d", "djolt", "nextline"})
        EXPECT_FALSE(knownPrefetcherId(id, Side::L1d)) << "'" << id << "'";
    EXPECT_DEATH(makePrefetcher("entangling-16k"), "unknown prefetcher");
}

TEST(Factory, FigureArmsKeepTheirNames)
{
    // The figures print name() as the row label, so the ids of the
    // motivation and extension arms must build the configurations the
    // figures always printed.
    const std::pair<const char *, const char *> names[] = {
        {"entangling-4k-commit", "Entangling-4K"},
        {"entangling-split-1k", "Entangling-split-1K"},
        {"entangling-split-512", "Entangling-split-512"},
        {"entangling-split-2k", "Entangling-split-2K"},
        {"lookahead-6", "Lookahead-6"},
        {"lookahead-oracle", "LookaheadOracle"},
    };
    for (const auto &[id, name] : names)
        EXPECT_EQ(makePrefetcher(id)->name(), name) << id;
    for (unsigned d : kLookaheadDistances)
        EXPECT_TRUE(knownPrefetcherId("lookahead-" + std::to_string(d)));
    // The split ids sit at the budgets the extension compares: each
    // below or near the unified table it is listed after.
    auto kb = [](const char *id) {
        return makePrefetcher(id)->storageBits() / 8.0 / 1024.0;
    };
    EXPECT_LT(kb("entangling-split-1k"), kb("entangling-2k"));
    EXPECT_LT(kb("entangling-split-2k"), kb("entangling-4k"));
}

TEST(Factory, LineupsAreKnownIds)
{
    for (const auto &id : mainLineup())
        EXPECT_NE(makePrefetcher(id), nullptr) << id;
    for (const auto &id : figure6Lineup())
        EXPECT_NE(makePrefetcher(id), nullptr) << id;
    EXPECT_GE(figure6Lineup().size(), 12u);
}

TEST(Factory, StorageOrderingMatchesPaperFigure6)
{
    // The x-axis ordering of Fig. 6 for the structures we model:
    // SN4L < MANA-2K < Entangling-2K < Entangling-4K < RDIP < Entangling-8K.
    auto kb = [](const char *id) {
        auto pf = makePrefetcher(id);
        return static_cast<double>(pf->storageBits()) / 8.0 / 1024.0;
    };
    EXPECT_LT(kb("sn4l"), kb("mana-2k"));
    EXPECT_LT(kb("mana-2k"), kb("entangling-2k"));
    EXPECT_LT(kb("entangling-2k"), kb("entangling-4k"));
    EXPECT_LT(kb("entangling-4k"), kb("rdip"));
    EXPECT_LT(kb("rdip"), kb("entangling-8k"));
}

} // namespace
} // namespace eip::prefetch
