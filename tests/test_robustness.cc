/**
 * @file
 * Robustness and failure-injection tests: extreme configurations, tiny
 * structures, degenerate workloads, and cross-configuration invariant
 * sweeps (parameterized).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/entangling.hh"
#include "harness/runner.hh"
#include "prefetch/factory.hh"
#include "sim/cache.hh"
#include "sim/cpu.hh"
#include "sim/dram.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

namespace eip {
namespace {

// ---------------------------------------------------------------------
// Cache invariants under random traffic, swept over geometries.
// ---------------------------------------------------------------------

struct CacheGeometry
{
    const char *label;
    uint32_t size_bytes;
    uint32_t ways;
    uint32_t mshrs;
    uint32_t pq;
};

class CacheSweep : public ::testing::TestWithParam<CacheGeometry>
{};

TEST_P(CacheSweep, InvariantsUnderRandomTraffic)
{
    const CacheGeometry &g = GetParam();
    sim::CacheConfig cfg;
    cfg.sizeBytes = g.size_bytes;
    cfg.ways = g.ways;
    cfg.mshrEntries = g.mshrs;
    cfg.pqEntries = g.pq;
    cfg.pfMshrReserve = 1;
    sim::Cache cache(cfg);
    sim::Dram dram(80, 20, 3);
    cache.setDram(&dram);

    Rng rng(g.size_bytes + g.ways);
    sim::Cycle now = 0;
    uint64_t attempted = 0, rejected = 0;
    for (int i = 0; i < 20000; ++i) {
        now += 1 + rng.below(3);
        if (rng.chance(0.2))
            cache.enqueuePrefetch(rng.below(512));
        ++attempted;
        auto res = cache.demandAccess(rng.below(512), 0, now);
        if (res.mshrFull) {
            ++rejected;
        } else {
            EXPECT_GE(res.ready, now);
        }
        cache.tick(now);
    }
    const sim::CacheStats &s = cache.stats();
    EXPECT_EQ(s.demandAccesses, attempted - rejected);
    EXPECT_EQ(s.demandHits + s.demandMisses, s.demandAccesses);
    // Every fill stems from a demand miss or an issued prefetch.
    EXPECT_LE(s.fills, s.demandMisses + s.prefetchIssued);
    EXPECT_LE(s.usefulPrefetches + s.wrongPrefetches, s.prefetchIssued);
    EXPECT_LE(s.evictions, s.fills);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Values(CacheGeometry{"tiny", 1024, 1, 1, 2},
                      CacheGeometry{"dm", 4096, 1, 4, 8},
                      CacheGeometry{"small", 8192, 4, 2, 4},
                      CacheGeometry{"paper", 32768, 8, 10, 32},
                      CacheGeometry{"fat", 65536, 16, 32, 64}),
    [](const auto &info) { return info.param.label; });

// ---------------------------------------------------------------------
// Entangling prefetcher under extreme configurations.
// ---------------------------------------------------------------------

struct EntanglingExtreme
{
    const char *label;
    uint32_t entries;
    uint32_t ways;
    uint32_t history;
    uint32_t merge;
    bool physical;
};

class EntanglingSweep : public ::testing::TestWithParam<EntanglingExtreme>
{};

TEST_P(EntanglingSweep, SurvivesRandomEventStream)
{
    const EntanglingExtreme &p = GetParam();
    core::EntanglingConfig cfg;
    cfg.tableEntries = p.entries;
    cfg.tableWays = p.ways;
    cfg.historyEntries = p.history;
    cfg.mergeDistance = p.merge;
    cfg.physical = p.physical;
    core::EntanglingPrefetcher pf(cfg);

    sim::CacheConfig host_cfg;
    host_cfg.sizeBytes = 32 * 1024;
    host_cfg.mshrEntries = 10;
    host_cfg.pqEntries = 32;
    sim::Cache host(host_cfg);
    sim::Dram dram(100, 40, 11);
    host.setDram(&dram);
    pf.attach(host);

    // Fuzz the hook interface with a random but causally-plausible event
    // stream: misses get fills, some hits are prefetch-hits, evictions of
    // unused prefetched lines occur.
    Rng rng(p.entries * 31 + p.history);
    sim::Cycle now = 0;
    std::vector<std::pair<sim::Addr, sim::Cycle>> outstanding;
    for (int i = 0; i < 30000; ++i) {
        now += 1 + rng.below(4);
        sim::Addr line = rng.below(4096);
        bool hit = rng.chance(0.7);

        sim::CacheOperateInfo op;
        op.line = line;
        op.cycle = now;
        op.hit = hit;
        op.hitWasPrefetch = hit && rng.chance(0.1);
        op.missLatePrefetch = !hit && rng.chance(0.1);
        if (op.missLatePrefetch)
            op.prefetchIssueCycle = now >= 150 ? now - 150 : 0;
        op.holdsMshr = !hit;
        pf.onCacheOperate(op);
        if (!hit)
            outstanding.emplace_back(line, now);

        // Randomly complete an outstanding miss.
        if (!outstanding.empty() && rng.chance(0.6)) {
            auto [fl, start] = outstanding.back();
            outstanding.pop_back();
            sim::CacheFillInfo fill;
            fill.line = fl;
            fill.cycle = now + 10 + rng.below(300);
            fill.byPrefetch = rng.chance(0.3);
            fill.demandHappened = true;
            fill.evictedValid = rng.chance(0.5);
            fill.evictedLine = rng.below(4096);
            fill.evictedUnusedPrefetch =
                fill.evictedValid && rng.chance(0.3);
            pf.onCacheFill(fill);
        }
        host.tick(now);
    }

    // Table invariants after the storm: every valid entry's destination
    // array respects its compression mode.
    pf.table().forEach([&](const core::EntangledEntry &e) {
        if (!e.dests.empty()) {
            EXPECT_LE(e.dests.size(), e.dests.mode());
            for (const auto &d : e.dests.all())
                EXPECT_LE(d.bitsNeeded, e.dests.bitsPerDest());
        }
        EXPECT_LE(e.bbSize, 63);
    });
    EXPECT_GT(pf.analysis().tableHits + pf.analysis().tableMisses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, EntanglingSweep,
    ::testing::Values(
        EntanglingExtreme{"one_set", 16, 16, 16, 6, false},
        EntanglingExtreme{"one_way_history", 256, 16, 1, 0, false},
        EntanglingExtreme{"no_merge", 2048, 16, 16, 0, false},
        EntanglingExtreme{"physical_small", 512, 16, 8, 6, true},
        EntanglingExtreme{"deep_history", 4096, 16, 256, 15, false}),
    [](const auto &info) { return info.param.label; });

// ---------------------------------------------------------------------
// Degenerate workloads and core configurations.
// ---------------------------------------------------------------------

TEST(Robustness, SingleFunctionProgramRuns)
{
    trace::ProgramConfig cfg;
    cfg.numFunctions = 1;
    cfg.seed = 9;
    trace::Program prog = trace::buildProgram(cfg);
    trace::ExecutorConfig ec;
    trace::Executor exec(prog, ec);
    for (int i = 0; i < 10000; ++i)
        exec.next();
    EXPECT_EQ(exec.emitted(), 10000u);
}

TEST(Robustness, ZeroCallDepthElidesAllCalls)
{
    trace::Workload w = trace::tinyWorkload();
    w.exec.maxCallDepth = 0;
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    for (int i = 0; i < 20000; ++i) {
        const trace::Instruction &inst = exec.next();
        EXPECT_FALSE(isCall(inst.branch));
        EXPECT_EQ(exec.callDepth(), 0u);
    }
}

TEST(Robustness, NarrowCoreStillRetires)
{
    sim::SimConfig cfg;
    cfg.fetchWidth = 1;
    cfg.predictWidth = 1;
    cfg.retireWidth = 1;
    cfg.ftqEntries = 4;
    cfg.robEntries = 8;
    trace::Workload w = trace::tinyWorkload();
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    sim::Cpu cpu(cfg);
    sim::SimStats stats = cpu.run(exec, 20000, 0);
    EXPECT_GE(stats.instructions, 20000u);
    EXPECT_LE(stats.ipc(), 1.0);
}

TEST(Robustness, OneMshrL1iStillMakesProgress)
{
    sim::SimConfig cfg;
    cfg.l1i.mshrEntries = 1;
    cfg.l1i.pqEntries = 2;
    cfg.l1i.pfMshrReserve = 0;
    trace::Workload w = trace::tinyWorkload();
    w.program.numFunctions = 300;
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    sim::Cpu cpu(cfg);
    sim::SimStats stats = cpu.run(exec, 50000, 0);
    EXPECT_GE(stats.instructions, 50000u);
}

TEST(Robustness, EntanglingOnStarvedCacheConfig)
{
    // A hostile host configuration (1 MSHR beyond the reserve, 2-deep PQ)
    // must degrade gracefully, never crash or deadlock.
    sim::SimConfig cfg;
    cfg.l1i.mshrEntries = 3;
    cfg.l1i.pqEntries = 2;
    cfg.l1i.pfMshrReserve = 2;
    auto pf = prefetch::makePrefetcher("entangling-2k");
    trace::Workload w = trace::tinyWorkload();
    w.program.numFunctions = 300;
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    sim::Cpu cpu(cfg);
    cpu.attachL1iPrefetcher(pf.get());
    sim::SimStats stats = cpu.run(exec, 50000, 0);
    EXPECT_GE(stats.instructions, 50000u);
}

TEST(Robustness, SimScaleEnvironmentKnob)
{
    setenv("EIP_SIM_SCALE", "0.5", 1);
    harness::RunSpec scaled = harness::RunSpec::defaultSpec();
    unsetenv("EIP_SIM_SCALE");
    harness::RunSpec plain = harness::RunSpec::defaultSpec();
    EXPECT_EQ(scaled.instructions, plain.instructions / 2);
    // Warm-up never shrinks (it must cover the recurrence cycle).
    EXPECT_EQ(scaled.warmup, plain.warmup);

    setenv("EIP_SIM_SCALE", "2", 1);
    harness::RunSpec doubled = harness::RunSpec::defaultSpec();
    unsetenv("EIP_SIM_SCALE");
    EXPECT_EQ(doubled.instructions, plain.instructions * 2);
    EXPECT_EQ(doubled.warmup, plain.warmup * 2);
}

} // namespace
} // namespace eip
