/**
 * @file
 * Tests for the miss-attribution subsystem (src/obs/why*, the ghost
 * pair set in src/core/entangled_table.hh and the Prefetcher::blame()
 * hook): GhostPairSet bookkeeping, the shadow classification
 * priorities, the partition identity on live runs for every blame-aware
 * prefetcher, the observer-off no-perturbation contract, the CLI knobs
 * and the eip-why/v1 artifact section round-trip.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/entangled_table.hh"
#include "harness/artifacts.hh"
#include "harness/cli.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/why.hh"
#include "trace/workloads.hh"

namespace eip {
namespace {

using obs::MissAttribution;
using obs::MissBlame;

/** The srv category exercises the full funnel (real drops, deferrals,
 *  late and wrong prefetches) — the richest ledger. */
trace::Workload
srvWorkload()
{
    trace::Workload w;
    EXPECT_TRUE(trace::syntheticWorkload("srv-1", w));
    return w;
}

harness::RunSpec
whySpec(const std::string &config_id)
{
    harness::RunSpec spec;
    spec.configId = config_id;
    spec.instructions = 120000;
    spec.warmup = 40000;
    spec.collectCounters = true;
    spec.why = true;
    return spec;
}

// -- GhostPairSet --------------------------------------------------------

TEST(GhostPairSet, RecordEraseContains)
{
    core::GhostPairSet ghost(4);
    EXPECT_FALSE(ghost.contains(0x10));
    ghost.record(0x10);
    ghost.record(0x20);
    EXPECT_TRUE(ghost.contains(0x10));
    EXPECT_TRUE(ghost.contains(0x20));
    EXPECT_EQ(ghost.size(), 2u);
    ghost.erase(0x10);
    EXPECT_FALSE(ghost.contains(0x10));
    EXPECT_EQ(ghost.size(), 1u);
}

TEST(GhostPairSet, RecordDeduplicates)
{
    core::GhostPairSet ghost(4);
    ghost.record(0x10);
    ghost.record(0x10);
    ghost.record(0x10);
    EXPECT_EQ(ghost.size(), 1u);
    // Dedup kept one FIFO slot, so three more distinct lines still fit.
    ghost.record(0x20);
    ghost.record(0x30);
    ghost.record(0x40);
    EXPECT_TRUE(ghost.contains(0x10));
    EXPECT_EQ(ghost.size(), 4u);
}

TEST(GhostPairSet, CapacityEvictsOldestFirst)
{
    core::GhostPairSet ghost(3);
    ghost.record(0x10);
    ghost.record(0x20);
    ghost.record(0x30);
    ghost.record(0x40); // evicts 0x10
    EXPECT_FALSE(ghost.contains(0x10));
    EXPECT_TRUE(ghost.contains(0x20));
    EXPECT_TRUE(ghost.contains(0x40));
    EXPECT_EQ(ghost.size(), 3u);
}

TEST(GhostPairSet, StaleFifoEntriesNeverResurrect)
{
    core::GhostPairSet ghost(2);
    ghost.record(0x10);
    ghost.erase(0x10); // stale FIFO slot remains
    ghost.record(0x20);
    ghost.record(0x30); // pops the stale 0x10 slot — a set no-op
    EXPECT_FALSE(ghost.contains(0x10));
    EXPECT_TRUE(ghost.contains(0x20));
    EXPECT_TRUE(ghost.contains(0x30));
}

// -- MissAttribution shadow classification -------------------------------

TEST(MissAttributionUnit, FreshLineHasNoShadowCause)
{
    MissAttribution why;
    EXPECT_EQ(why.classifyShadow(0x100), MissBlame::None);
    EXPECT_FALSE(why.seenBefore(0x100));
}

TEST(MissAttributionUnit, DropReasonsStickUntilResolved)
{
    MissAttribution why;
    why.prefetchDropped(0x100, obs::PfDropReason::QueueFull);
    EXPECT_EQ(why.classifyShadow(0x100), MissBlame::DroppedQueueFull);
    why.prefetchDropped(0x200, obs::PfDropReason::CrossPage);
    EXPECT_EQ(why.classifyShadow(0x200), MissBlame::DroppedCrossPage);
    // A demand hit resolves the episode and clears the flags.
    why.demandHit(0x100);
    EXPECT_EQ(why.classifyShadow(0x100), MissBlame::None);
    EXPECT_TRUE(why.seenBefore(0x100));
}

TEST(MissAttributionUnit, EvictionOutranksDrops)
{
    MissAttribution why;
    why.prefetchDropped(0x100, obs::PfDropReason::QueueFull);
    why.prefetchQueued(0x100);
    why.prefetchFilled(0x100);
    why.lineEvicted(0x100, /*prefetchedUnused=*/true,
                    /*byWrongPath=*/false);
    EXPECT_EQ(why.classifyShadow(0x100), MissBlame::EvictedBeforeUse);
}

TEST(MissAttributionUnit, WrongPathOutranksEverything)
{
    MissAttribution why;
    why.prefetchDropped(0x100, obs::PfDropReason::QueueFull);
    why.lineEvicted(0x100, /*prefetchedUnused=*/true,
                    /*byWrongPath=*/true);
    EXPECT_EQ(why.classifyShadow(0x100), MissBlame::WrongPathPollution);
}

TEST(MissAttributionUnit, RecordMissBumpsLedgerAndConsumesFlags)
{
    MissAttribution why(/*top=*/2);
    why.prefetchDropped(0x100, obs::PfDropReason::QueueFull);
    why.recordMiss(MissBlame::DroppedQueueFull, 0x100, 0x4000);
    EXPECT_EQ(why.count(MissBlame::DroppedQueueFull), 1u);
    EXPECT_EQ(why.total(), 1u);
    // The flags were consumed and the line is now seen.
    EXPECT_EQ(why.classifyShadow(0x100), MissBlame::None);
    EXPECT_TRUE(why.seenBefore(0x100));

    why.recordMiss(MissBlame::NeverPredicted, 0x200, 0x4000);
    why.recordMiss(MissBlame::NeverPredicted, 0x300, 0x8000);
    obs::WhyDump dump = why.dump();
    EXPECT_TRUE(dump.enabled);
    EXPECT_EQ(dump.total(), 3u);
    ASSERT_EQ(dump.topPcs.size(), 2u);
    // PC 0x4000 carries two misses; ordered total desc.
    EXPECT_EQ(dump.topPcs[0].pc, 0x4000u);
    EXPECT_EQ(dump.topPcs[0].total, 2u);
    EXPECT_EQ(dump.topPcs[1].pc, 0x8000u);
}

TEST(MissAttributionUnit, BoundaryResetsLedgerButKeepsShadow)
{
    MissAttribution why;
    why.prefetchDropped(0x100, obs::PfDropReason::QueueFull);
    why.recordMiss(MissBlame::NeverPredicted, 0x200, 0x4000);
    why.prefetchDropped(0x300, obs::PfDropReason::CrossPage);
    why.measurementBoundary();
    EXPECT_EQ(why.total(), 0u);
    EXPECT_EQ(why.dump().topPcs.size(), 0u);
    // Shadow state persists across the boundary: warm-up learning
    // legitimately explains measured misses.
    EXPECT_TRUE(why.seenBefore(0x200));
    EXPECT_EQ(why.classifyShadow(0x300), MissBlame::DroppedCrossPage);
}

// -- live-run partition identity -----------------------------------------

/** The ledger invariant on a finished run: late_partial mirrors the
 *  cache's late-prefetch count and the whole ledger partitions the
 *  demand misses. */
void
expectPartition(const harness::RunResult &result)
{
    ASSERT_TRUE(result.why.enabled);
    uint64_t late =
        result.why.blame[obs::blameIndex(MissBlame::LatePartial)];
    EXPECT_EQ(late, result.stats.l1i.latePrefetches);
    EXPECT_EQ(result.why.total(), result.stats.l1i.demandMisses);
    EXPECT_EQ(result.why.total() - late,
              result.stats.l1i.uncoveredMisses());
}

TEST(MissAttributionSim, PartitionIdentityPerPrefetcher)
{
    trace::Workload workload = srvWorkload();
    for (const char *config :
         {"entangling-4k", "mana-2k", "pif", "fnl+mma", "none"}) {
        SCOPED_TRACE(config);
        harness::RunResult result =
            harness::runOne(workload, whySpec(config));
        expectPartition(result);
        EXPECT_GT(result.why.total(), 0u);
    }
}

TEST(MissAttributionSim, PairEvictedFiresOnSmallEntanglingTable)
{
    // cassandra's large code footprint thrashes the 2K-entry table, so
    // evicted pairs must be blamed as pair_evicted. Needs the full run
    // length: table evictions of still-live pairs only start once the
    // footprint has cycled through the table a few times.
    for (const auto &w : trace::cloudSuite()) {
        if (w.name != "cassandra")
            continue;
        harness::RunSpec spec = whySpec("entangling-2k");
        spec.instructions = 600000;
        spec.warmup = 300000;
        harness::RunResult result = harness::runOne(w, spec);
        expectPartition(result);
        EXPECT_GT(
            result.why.blame[obs::blameIndex(MissBlame::PairEvicted)],
            0u);
        return;
    }
    ADD_FAILURE() << "cassandra missing from cloudSuite()";
}

TEST(MissAttributionSim, ObserverOffLeavesResultsIdentical)
{
    trace::Workload workload = srvWorkload();
    harness::RunSpec with_why = whySpec("entangling-4k");
    harness::RunSpec without = with_why;
    without.why = false;

    harness::RunResult a = harness::runOne(workload, with_why);
    harness::RunResult b = harness::runOne(workload, without);
    EXPECT_FALSE(b.why.enabled);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.l1i.demandMisses, b.stats.l1i.demandMisses);
    EXPECT_EQ(a.stats.l1i.usefulPrefetches, b.stats.l1i.usefulPrefetches);
    EXPECT_EQ(a.stats.l1i.latePrefetches, b.stats.l1i.latePrefetches);

    // The why-off artifact carries neither the "why" section nor the
    // why.* counters (historic byte identity).
    std::string off_json = harness::runArtifactJson(
        harness::makeManifest(workload, without, b), b,
        /*include_timing=*/false);
    EXPECT_EQ(off_json.find("\"why\""), std::string::npos);
    EXPECT_EQ(off_json.find("why.never_predicted"), std::string::npos);
}

// -- artifact section and report -----------------------------------------

TEST(MissAttributionArtifact, WhySectionRoundTripsAndReportRenders)
{
    trace::Workload workload = srvWorkload();
    harness::RunSpec spec = whySpec("entangling-4k");
    harness::RunResult result = harness::runOne(workload, spec);
    expectPartition(result);

    std::string json_text = harness::runArtifactJson(
        harness::makeManifest(workload, spec, result), result,
        /*include_timing=*/false);
    std::string error;
    auto doc = obs::parseJson(json_text, &error);
    ASSERT_TRUE(doc.has_value()) << error;

    const obs::JsonValue *why = doc->find("why");
    ASSERT_NE(why, nullptr);
    const obs::JsonValue *schema = why->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, obs::kWhySchema);
    const obs::JsonValue *blame = why->find("blame");
    ASSERT_NE(blame, nullptr);
    EXPECT_EQ(blame->object.size(), obs::kMissBlameCount);

    // The ledger is mirrored into registered counters.
    const obs::JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    for (size_t i = 0; i < obs::kMissBlameCount; ++i) {
        MissBlame b = static_cast<MissBlame>(i + 1);
        std::string key = std::string("why.") + obs::missBlameName(b);
        const obs::JsonValue *counter = counters->find(key);
        ASSERT_NE(counter, nullptr) << key;
        EXPECT_EQ(counter->asU64(), result.why.blame[i]) << key;
    }

    std::string report_error;
    std::string report = obs::whyReport(*doc, 5, &report_error);
    EXPECT_TRUE(report_error.empty()) << report_error;
    EXPECT_NE(report.find("blame"), std::string::npos);
    EXPECT_NE(report.find("partition"), std::string::npos);
}

TEST(MissAttributionArtifact, ReportFlagsBrokenPartition)
{
    trace::Workload workload = srvWorkload();
    harness::RunSpec spec = whySpec("entangling-4k");
    harness::RunResult result = harness::runOne(workload, spec);
    // Corrupt the ledger: the report must set the error string.
    result.why.blame[obs::blameIndex(MissBlame::NeverPredicted)] += 1;
    std::string json_text = harness::runArtifactJson(
        harness::makeManifest(workload, spec, result), result,
        /*include_timing=*/false);
    std::string error;
    auto doc = obs::parseJson(json_text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    std::string report_error;
    obs::whyReport(*doc, 5, &report_error);
    EXPECT_FALSE(report_error.empty());
}

// -- CLI knobs -----------------------------------------------------------

TEST(MissAttributionCli, WhyFlagsParse)
{
    harness::CliOptions off = harness::parseCli({"--workload", "srv-1"});
    EXPECT_TRUE(off.error.empty()) << off.error;
    EXPECT_FALSE(off.why);

    harness::CliOptions on =
        harness::parseCli({"--workload", "srv-1", "--why"});
    EXPECT_TRUE(on.error.empty()) << on.error;
    EXPECT_TRUE(on.why);
    EXPECT_EQ(on.whyTop, 10u);

    harness::CliOptions topped =
        harness::parseCli({"--workload", "srv-1", "--why-top", "25"});
    EXPECT_TRUE(topped.error.empty()) << topped.error;
    EXPECT_TRUE(topped.why); // --why-top implies --why
    EXPECT_EQ(topped.whyTop, 25u);

    harness::CliOptions bad = harness::parseCli({"--why-top"});
    EXPECT_FALSE(bad.error.empty());
}

} // namespace
} // namespace eip
