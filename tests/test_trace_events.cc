/**
 * @file
 * Tests for the event-tracing subsystem (src/obs/trace*): lifecycle
 * roll-up bookkeeping, stall-span coalescing, family masking, ring-wrap
 * behaviour, the eip-trace/v1 JSON round-trip through the reader, exact
 * reconciliation against eip-run/v1 counters, the funnel invariants on
 * live simulations, and the tracing-off byte-identity contract.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/artifacts.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "sim/cache.hh"
#include "sim/dram.hh"
#include "trace/workloads.hh"

namespace eip {
namespace {

using obs::EventTracer;
using obs::PfDropReason;
using obs::StallReason;
using obs::TraceConfig;

/** The srv category exercises the full lifecycle funnel (big code
 *  footprint: real drops, deferrals, late and wrong prefetches). */
trace::Workload
srvWorkload()
{
    trace::Workload w;
    EXPECT_TRUE(trace::syntheticWorkload("srv-1", w));
    return w;
}

harness::RunSpec
tracedSpec(EventTracer *tracer, uint64_t warmup)
{
    harness::RunSpec spec;
    spec.configId = "entangling-4k";
    spec.instructions = 120000;
    spec.warmup = warmup;
    spec.collectCounters = true;
    spec.tracer = tracer;
    return spec;
}

/** Count trace_event entries that are actual events (ph != "M"). */
size_t
nonMetaEvents(const obs::TraceDoc &doc)
{
    size_t n = 0;
    for (const auto &ev : doc.events.array) {
        const obs::JsonValue *ph = ev.find("ph");
        if (ph != nullptr && ph->string != "M")
            ++n;
    }
    return n;
}

// ---------------------------------------------------------------------
// Pure-unit: enums, family parsing, hook bookkeeping
// ---------------------------------------------------------------------

TEST(TraceUnit, FamilySpecParsing)
{
    EXPECT_EQ(obs::parseTraceFamilies("pf"), obs::kTracePf);
    EXPECT_EQ(obs::parseTraceFamilies("stall"), obs::kTraceStall);
    EXPECT_EQ(obs::parseTraceFamilies("cache"), obs::kTraceCache);
    EXPECT_EQ(obs::parseTraceFamilies("pf,stall,cache"), obs::kTraceAll);
    EXPECT_EQ(obs::parseTraceFamilies("stall,pf"),
              obs::kTracePf | obs::kTraceStall);
    // Repeats are harmless; empty / unknown names are errors.
    EXPECT_EQ(obs::parseTraceFamilies("pf,pf"), obs::kTracePf);
    EXPECT_EQ(obs::parseTraceFamilies(""), std::nullopt);
    EXPECT_EQ(obs::parseTraceFamilies("pf,"), std::nullopt);
    EXPECT_EQ(obs::parseTraceFamilies("bogus"), std::nullopt);
}

TEST(TraceUnit, ReasonNamesAreStable)
{
    EXPECT_STREQ(obs::pfDropReasonName(PfDropReason::QueueFull),
                 "queue_full");
    EXPECT_STREQ(obs::pfDropReasonName(PfDropReason::DupQueued),
                 "dup_queued");
    EXPECT_STREQ(obs::pfDropReasonName(PfDropReason::DupCached),
                 "dup_cached");
    EXPECT_STREQ(obs::pfDropReasonName(PfDropReason::DupInflight),
                 "dup_inflight");
    EXPECT_STREQ(obs::pfDropReasonName(PfDropReason::CrossPage),
                 "cross_page");
    EXPECT_STREQ(obs::stallReasonName(StallReason::LineMiss), "line_miss");
    EXPECT_STREQ(obs::stallReasonName(StallReason::FtqEmptyMispredict),
                 "ftq_empty_mispredict");
    EXPECT_STREQ(obs::stallReasonName(StallReason::FtqEmptyStarved),
                 "ftq_empty_starved");
    EXPECT_STREQ(obs::stallReasonName(StallReason::BackendFull),
                 "backend_full");
}

TEST(TraceUnit, HooksRollUpAndStallSpansCoalesce)
{
    EventTracer t;

    // One prefetch walked through the whole happy path, one dropped.
    t.pfRequested(0x10, 5);
    t.pfQueued(0x10, 5);
    t.pfMshrDefer(0x10, 6);
    t.pfIssued(0x10, 7);
    t.pfFilled(0x10, 107, /*demand_touched=*/false);
    t.pfFirstUse(0x10, 150);
    t.pfRequested(0x11, 5);
    t.pfDropped(0x11, 5, PfDropReason::QueueFull);

    // Three consecutive line-miss cycles, one active, two back-end-full.
    t.stallCycle(StallReason::LineMiss, 10);
    t.stallCycle(StallReason::LineMiss, 11);
    t.stallCycle(StallReason::LineMiss, 12);
    t.fetchActive();
    t.stallCycle(StallReason::BackendFull, 20);
    t.stallCycle(StallReason::BackendFull, 21);
    t.demandMiss(0x20, 30, 100);
    t.finish();

    const obs::LifecycleCounts &life = t.lifecycle();
    EXPECT_EQ(life.requested, 2u);
    EXPECT_EQ(life.queued, 1u);
    EXPECT_EQ(life.dropQueueFull, 1u);
    EXPECT_EQ(life.droppedTotal(), 1u);
    EXPECT_EQ(life.mshrDeferrals, 1u);
    EXPECT_EQ(life.issued, 1u);
    EXPECT_EQ(life.filled, 1u);
    EXPECT_EQ(life.firstUse, 1u);
    EXPECT_EQ(life.inQueue(), 0);
    EXPECT_EQ(life.inFlight(), 0);
    EXPECT_EQ(life.residentUnused(), 0);

    EXPECT_EQ(t.stallCycles()[size_t(StallReason::LineMiss)], 3u);
    EXPECT_EQ(t.stallCycles()[size_t(StallReason::BackendFull)], 2u);
    EXPECT_EQ(t.idleCycles(), 5u);

    // Round-trip through the reader: five cycles collapsed into two
    // "X" spans, every instant kept, counts preserved.
    std::string error;
    auto doc = obs::parseTrace(t.toJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->idleCycles, 5u);
    EXPECT_EQ(doc->lifecycle.requested, 2u);
    EXPECT_FALSE(doc->wrapped);
    // 8 lifecycle instants + 2 stall spans + 1 demand miss.
    EXPECT_EQ(doc->recorded, 11u);
    EXPECT_EQ(nonMetaEvents(*doc), 11u);

    size_t spans = 0;
    for (const auto &ev : doc->events.array) {
        const obs::JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_TRUE(ph->string == "i" || ph->string == "X" ||
                    ph->string == "M")
            << ph->string;
        if (ph->string != "X")
            continue;
        ++spans;
        const obs::JsonValue *dur = ev.find("dur");
        ASSERT_NE(dur, nullptr);
        if (ev.find("name")->string == "line_miss") {
            EXPECT_EQ(ev.find("ts")->asU64(), 10u);
            EXPECT_EQ(dur->asU64(), 3u);
        } else {
            EXPECT_EQ(ev.find("name")->string, "backend_full");
            EXPECT_EQ(dur->asU64(), 2u);
        }
    }
    EXPECT_EQ(spans, 2u);
}

TEST(TraceUnit, FamilyMaskGatesRingButNeverCounts)
{
    TraceConfig cfg;
    cfg.families = obs::kTraceStall;
    EventTracer t(cfg);

    t.pfRequested(0x10, 1);
    t.pfQueued(0x10, 1);
    t.demandMiss(0x20, 2, 50);
    t.stallCycle(StallReason::LineMiss, 3);
    t.finish();

    // Counters cover every family; the ring holds only the stall span.
    EXPECT_EQ(t.lifecycle().requested, 1u);
    EXPECT_EQ(t.lifecycle().queued, 1u);
    EXPECT_EQ(t.idleCycles(), 1u);
    EXPECT_EQ(t.recordedEvents(), 1u);
    EXPECT_EQ(t.retainedEvents(), 1u);
}

TEST(TraceUnit, RingWrapPreservesCountsAndOrder)
{
    TraceConfig cfg;
    cfg.limit = 4;
    EventTracer t(cfg);
    for (uint64_t i = 0; i < 10; ++i)
        t.pfRequested(0x100 + i, i);
    t.finish();

    EXPECT_TRUE(t.wrapped());
    EXPECT_EQ(t.recordedEvents(), 10u);
    EXPECT_EQ(t.retainedEvents(), 4u);
    // Wrap never touches the roll-ups.
    EXPECT_EQ(t.lifecycle().requested, 10u);

    std::string error;
    auto doc = obs::parseTrace(t.toJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_TRUE(doc->wrapped);
    EXPECT_EQ(doc->limit, 4u);
    EXPECT_EQ(doc->recorded, 10u);
    EXPECT_EQ(doc->retained, 4u);
    EXPECT_EQ(doc->lifecycle.requested, 10u);
    ASSERT_EQ(nonMetaEvents(*doc), 4u);

    // Export walks the ring oldest-first: cycles 6..9.
    uint64_t expect_ts = 6;
    for (const auto &ev : doc->events.array) {
        if (ev.find("ph")->string == "M")
            continue;
        EXPECT_EQ(ev.find("ts")->asU64(), expect_ts++);
    }
}

TEST(TraceUnit, MeasurementBoundaryZerosRollupsAndKeepsRing)
{
    EventTracer t;
    t.pfRequested(0x10, 1);
    t.pfQueued(0x10, 1);
    t.stallCycle(StallReason::FtqEmptyStarved, 2);
    t.measurementBoundary(3);
    t.pfRequested(0x11, 4);
    t.finish();

    // Roll-ups cover only the measured window...
    EXPECT_EQ(t.lifecycle().requested, 1u);
    EXPECT_EQ(t.lifecycle().queued, 0u);
    EXPECT_EQ(t.idleCycles(), 0u);
    // ...while the ring keeps the warm-up timeline plus the marker.
    EXPECT_EQ(t.retainedEvents(), 5u);

    auto doc = obs::parseTrace(t.toJson());
    ASSERT_TRUE(doc.has_value());
    bool found_marker = false;
    for (const auto &ev : doc->events.array) {
        if (ev.find("ph")->string != "M" &&
            ev.find("name")->string == "measure_start") {
            found_marker = true;
            EXPECT_EQ(ev.find("ts")->asU64(), 3u);
        }
    }
    EXPECT_TRUE(found_marker);
}

// ---------------------------------------------------------------------
// Prefetcher-side candidate drops (CrossPage) via Prefetcher::tracer()
// ---------------------------------------------------------------------

/** Flags every access's next line as a cross-page discard, the way a
 *  real prefetcher reports candidates it never hands to the queue. */
class CrossPagePrefetcher : public sim::Prefetcher
{
  public:
    std::string name() const override { return "cross-page-test"; }
    uint64_t storageBits() const override { return 0; }

    void
    onCacheOperate(const sim::CacheOperateInfo &info) override
    {
        sawTracer = tracer() != nullptr;
        if (tracer() != nullptr) {
            tracer()->pfDropped(info.line + 1, info.cycle,
                                PfDropReason::CrossPage);
        }
    }

    bool sawTracer = false;
};

TEST(TraceCrossPage, PrefetcherCandidateDropsReachTheTracer)
{
    sim::CacheConfig cfg;
    cfg.name = "L1";
    cfg.sizeBytes = 4096;
    cfg.ways = 2;
    cfg.hitLatency = 4;
    cfg.mshrEntries = 4;
    cfg.pqEntries = 8;

    sim::Dram dram(100, 0);
    sim::Cache cache(cfg);
    cache.setDram(&dram);

    CrossPagePrefetcher pf;
    cache.attachPrefetcher(&pf);

    // No tracer attached: the accessor must hand back nullptr.
    cache.demandAccess(0x100, 0x4000, 10);
    EXPECT_FALSE(pf.sawTracer);

    EventTracer tracer;
    cache.setTracer(&tracer);
    cache.demandAccess(0x200, 0x4000, 20);
    EXPECT_TRUE(pf.sawTracer);
    EXPECT_EQ(tracer.lifecycle().dropCrossPage, 1u);
    // Candidate drops are pre-request: not part of the funnel equality.
    EXPECT_EQ(tracer.lifecycle().requested, 0u);
    EXPECT_EQ(tracer.lifecycle().droppedTotal(), 1u);
}

// ---------------------------------------------------------------------
// Live simulation: funnel invariants, stall partition, reconciliation
// ---------------------------------------------------------------------

TEST(TraceSim, EveryPrefetchReachesExactlyOneTerminalState)
{
    // Warm-up 0: the window covers the whole run, so every cross-stage
    // funnel inequality must hold and every residual is non-negative.
    EventTracer tracer;
    harness::RunResult result =
        harness::runOne(srvWorkload(), tracedSpec(&tracer, /*warmup=*/0));
    const obs::LifecycleCounts &life = tracer.lifecycle();
    ASSERT_GT(life.requested, 0u);
    ASSERT_GT(life.issued, 0u);

    // Stage equalities (each hook resolves atomically).
    EXPECT_EQ(life.requested,
              life.queued + life.dropQueueFull + life.dropDupQueued);
    EXPECT_EQ(life.queued, life.issued + life.dropDupCached +
                               life.dropDupInflight +
                               uint64_t(life.inQueue()));

    // Whole-run inequalities: nothing fills that was not issued, and
    // each filled line lands in at most one terminal bucket; the
    // remainder is still resident (or in flight) at end of run.
    EXPECT_LE(life.issued, life.queued);
    EXPECT_LE(life.filled, life.issued);
    EXPECT_GE(life.inQueue(), 0);
    EXPECT_GE(life.inFlight(), 0);
    EXPECT_GE(life.residentUnused(), 0);
    EXPECT_LE(life.firstUse + life.evictedUnused, life.filled);
    // A late use precedes its (demand-touched) fill.
    EXPECT_LE(life.filledAfterDemand, life.lateUse);

    // The roll-ups ARE the cache stats, hook for hook.
    const sim::CacheStats &l1i = result.stats.l1i;
    EXPECT_EQ(life.requested, l1i.prefetchRequested);
    EXPECT_EQ(life.dropQueueFull, l1i.prefetchDroppedFull);
    EXPECT_EQ(life.dropDupQueued, l1i.prefetchDropDupQueued);
    EXPECT_EQ(life.dropDupCached, l1i.prefetchDropDupCached);
    EXPECT_EQ(life.dropDupInflight, l1i.prefetchDropDupInflight);
    EXPECT_EQ(life.mshrDeferrals, l1i.prefetchMshrDeferrals);
    EXPECT_EQ(life.issued, l1i.prefetchIssued);
    EXPECT_EQ(life.firstUse, l1i.usefulPrefetches);
    EXPECT_EQ(life.lateUse, l1i.latePrefetches);
    EXPECT_EQ(life.evictedUnused, l1i.wrongPrefetches);
    EXPECT_EQ(life.dropDupQueued + life.dropDupCached +
                  life.dropDupInflight,
              l1i.prefetchFiltered);
}

TEST(TraceSim, StallBucketsPartitionZeroFetchCycles)
{
    EventTracer tracer;
    harness::RunResult result = harness::runOne(
        srvWorkload(), tracedSpec(&tracer, /*warmup=*/40000));
    const sim::SimStats &stats = result.stats;

    ASSERT_GT(stats.fetchIdleCycles, 0u);
    EXPECT_EQ(tracer.idleCycles(), stats.fetchIdleCycles);
    EXPECT_EQ(tracer.stallCycles()[size_t(StallReason::LineMiss)],
              stats.fetchStallLineMiss);
    EXPECT_EQ(
        tracer.stallCycles()[size_t(StallReason::FtqEmptyMispredict)],
        stats.fetchStallFtqEmptyMispredict);
    EXPECT_EQ(tracer.stallCycles()[size_t(StallReason::FtqEmptyStarved)],
              stats.fetchStallFtqEmptyStarved);
    EXPECT_EQ(tracer.stallCycles()[size_t(StallReason::BackendFull)],
              stats.fetchStallRobFull);

    uint64_t attributed = 0;
    for (uint64_t bucket : tracer.stallCycles())
        attributed += bucket;
    EXPECT_EQ(attributed, stats.fetchIdleCycles);
    EXPECT_EQ(stats.fetchStallFtqEmpty(),
              stats.fetchStallFtqEmptyMispredict +
                  stats.fetchStallFtqEmptyStarved);
}

TEST(TraceSim, TraceReconcilesExactlyWithRunArtifact)
{
    // Warm-up on: the boundary reset must keep the two artifacts
    // describing the same measured window.
    EventTracer tracer;
    trace::Workload workload = srvWorkload();
    harness::RunSpec spec = tracedSpec(&tracer, /*warmup=*/40000);
    harness::RunResult result = harness::runOne(workload, spec);
    tracer.finish();

    std::string run_json = harness::runArtifactJson(
        harness::makeManifest(workload, spec, result), result,
        /*include_timing=*/false);
    std::string error;
    auto run = obs::parseJson(run_json, &error);
    ASSERT_TRUE(run.has_value()) << error;
    auto doc = obs::parseTrace(
        tracer.toJson({{"workload", workload.name}}), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    EXPECT_EQ(obs::reconcileWithRun(*doc, *run),
              std::vector<std::string>{});

    // A single corrupted terminal count must be flagged.
    doc->lifecycle.firstUse += 1;
    std::vector<std::string> mismatches =
        obs::reconcileWithRun(*doc, *run);
    ASSERT_FALSE(mismatches.empty());
    EXPECT_NE(mismatches[0].find("useful_prefetches"), std::string::npos)
        << mismatches[0];
}

TEST(TraceSim, EventCountsReconcileWithLifecycleRollups)
{
    // Warm-up on: reconcileEvents must split the ring at the
    // measure_start marker exactly as the roll-ups reset there.
    EventTracer tracer;
    trace::Workload workload = srvWorkload();
    harness::runOne(workload, tracedSpec(&tracer, /*warmup=*/40000));
    tracer.finish();

    std::string error;
    auto doc = obs::parseTrace(tracer.toJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_FALSE(doc->wrapped);
    ASSERT_GT(doc->lifecycle.firstUse, 0u);
    EXPECT_EQ(obs::reconcileEvents(*doc), std::vector<std::string>{});

    // A corrupted roll-up must produce a field-level diff.
    doc->lifecycle.lateUse += 1;
    std::vector<std::string> mismatches = obs::reconcileEvents(*doc);
    ASSERT_EQ(mismatches.size(), 1u);
    EXPECT_NE(mismatches[0].find("pf_late_use"), std::string::npos)
        << mismatches[0];
    EXPECT_NE(mismatches[0].find("lifecycle.late_use"), std::string::npos)
        << mismatches[0];
}

TEST(TraceSim, EventReconciliationIsVacuousWhenInexact)
{
    trace::Workload workload = srvWorkload();

    // A wrapped ring lost events: nothing exact can be asserted.
    TraceConfig small;
    small.limit = 64;
    EventTracer wrapped_tracer(small);
    harness::runOne(workload, tracedSpec(&wrapped_tracer, /*warmup=*/0));
    wrapped_tracer.finish();
    ASSERT_TRUE(wrapped_tracer.wrapped());
    std::string error;
    auto doc = obs::parseTrace(wrapped_tracer.toJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(obs::reconcileEvents(*doc), std::vector<std::string>{});

    // A ring that filtered the pf family carries the roll-ups but no
    // pf events; the meta families key makes that a non-mismatch.
    TraceConfig no_pf;
    no_pf.families = obs::kTraceStall | obs::kTraceCache;
    EventTracer filtered(no_pf);
    harness::runOne(workload, tracedSpec(&filtered, /*warmup=*/0));
    filtered.finish();
    auto filtered_doc = obs::parseTrace(filtered.toJson(), &error);
    ASSERT_TRUE(filtered_doc.has_value()) << error;
    ASSERT_FALSE(filtered_doc->wrapped);
    ASSERT_GT(filtered_doc->lifecycle.firstUse, 0u);
    EXPECT_EQ(obs::reconcileEvents(*filtered_doc),
              std::vector<std::string>{});
}

TEST(TraceSim, RingWrapInLiveRunKeepsDocumentConsistent)
{
    TraceConfig cfg;
    cfg.limit = 64;
    EventTracer tracer(cfg);
    harness::runOne(srvWorkload(), tracedSpec(&tracer, /*warmup=*/0));
    tracer.finish();
    ASSERT_TRUE(tracer.wrapped());

    std::string error;
    auto doc = obs::parseTrace(tracer.toJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_TRUE(doc->wrapped);
    EXPECT_EQ(doc->retained, 64u);
    EXPECT_EQ(nonMetaEvents(*doc), 64u);
    EXPECT_GT(doc->recorded, doc->retained);
    // The wrap discarded events, never counts.
    EXPECT_EQ(doc->lifecycle.requested, tracer.lifecycle().requested);
    EXPECT_EQ(doc->lifecycle.firstUse, tracer.lifecycle().firstUse);
    EXPECT_EQ(doc->idleCycles, tracer.idleCycles());
}

TEST(TraceSim, TracerDoesNotPerturbTheRun)
{
    // The byte-identity contract behind --trace-out: a traced run and a
    // plain run produce identical artifacts (timing excluded).
    trace::Workload workload = srvWorkload();
    harness::RunSpec plain;
    plain.configId = "entangling-4k";
    plain.instructions = 60000;
    plain.warmup = 20000;
    plain.collectCounters = true;
    plain.sampleInterval = 20000;

    EventTracer tracer;
    harness::RunSpec traced = plain;
    traced.tracer = &tracer;

    harness::RunResult a = harness::runOne(workload, plain);
    harness::RunResult b = harness::runOne(workload, traced);

    std::string doc_a = harness::runArtifactJson(
        harness::makeManifest(workload, plain, a), a,
        /*include_timing=*/false);
    std::string doc_b = harness::runArtifactJson(
        harness::makeManifest(workload, traced, b), b,
        /*include_timing=*/false);
    EXPECT_EQ(doc_a, doc_b);
    // And the tracer really observed that run.
    EXPECT_EQ(tracer.lifecycle().issued, b.stats.l1i.prefetchIssued);
}

TEST(TraceSim, ReportsRenderFromALiveTrace)
{
    EventTracer tracer;
    harness::runOne(srvWorkload(), tracedSpec(&tracer, /*warmup=*/40000));
    tracer.finish();
    auto doc = obs::parseTrace(tracer.toJson());
    ASSERT_TRUE(doc.has_value());

    std::string funnel = obs::funnelReport(*doc);
    EXPECT_NE(funnel.find("requested"), std::string::npos);
    EXPECT_NE(funnel.find("issued"), std::string::npos);
    std::string drops = obs::dropReport(*doc);
    EXPECT_NE(drops.find("queue_full"), std::string::npos);
    std::string stalls = obs::stallReport(*doc);
    EXPECT_NE(stalls.find("line_miss"), std::string::npos);
    EXPECT_NE(stalls.find("ftq_empty_mispredict"), std::string::npos);
    std::string lateness = obs::latenessReport(*doc, 10000);
    EXPECT_FALSE(lateness.empty());
}

} // namespace
} // namespace eip
