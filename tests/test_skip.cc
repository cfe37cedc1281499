/**
 * @file
 * Tests for the event-driven cycle scheduler (DESIGN.md §3.8), the only
 * detailed schedule of sim::Cpu: nextEventCycle()/inertWindow() pinned on
 * hand-built pipeline states through CpuTestPeer, skipIdleCycles' bulk
 * stall accounting, and the equivalence gate — every observable of a
 * skipping run (SimStats, registered counters, sampler rows, the --why
 * ledger, tracer events, invariant audits, sampled windows) must equal
 * the per-cycle reference schedule's, which ticks every cycle. Runs carry
 * a warm-up boundary and a sampler stride that does not divide the
 * budget, so a skip that jumped a measurement edge or a stride would show
 * up as divergence. The MeasurementPath tests pin the public sequence
 * run() is built from (window, boundary, window) and the one cycle
 * ledger that functional warming never charges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "obs/why.hh"
#include "prefetch/factory.hh"
#include "sim/cpu.hh"
#include "trace/program_builder.hh"
#include "trace/source.hh"
#include "trace/workloads.hh"

namespace eip::sim {

/** Builds pipeline states by hand (friend of Cpu). */
class CpuTestPeer
{
  public:
    static Cycle now(const Cpu &cpu) { return cpu.now; }

    static void
    pushRob(Cpu &cpu, Cycle done)
    {
        Cpu::RobEntry entry;
        entry.done = done;
        cpu.rob.push_back(entry);
    }

    /** Append a one-instruction FTQ group in the given access state. */
    static void
    pushFtqGroup(Cpu &cpu, Addr line, Cycle ready, bool access_pending)
    {
        Cpu::FtqGroup &group = cpu.ftq.pushSlot();
        group.line = line;
        group.ready = ready;
        group.accessPending = access_pending;
        group.insts.clear();
        group.insts.push_back(trace::Instruction{});
        group.consumed = 0;
        group.mispredict.clear();
        group.mispredict.push_back(0);
        ++cpu.ftqInsts;
        if (access_pending)
            ++cpu.ftqPendingAccess_;
    }

    static void
    blockPredictor(Cpu &cpu)
    {
        cpu.predictBlockedOnBranch = true;
    }

    static void
    setPredictStall(Cpu &cpu, Cycle until)
    {
        cpu.predictStallUntil = until;
    }

    static void
    setL1iAccessBlocked(Cpu &cpu, bool blocked)
    {
        cpu.l1iAccessBlocked_ = blocked;
    }

    static void skip(Cpu &cpu, Cycle bound) { cpu.skipIdleCycles(bound); }

    /** Switch @p cpu to the per-cycle reference schedule. */
    static void tickEveryCycle(Cpu &cpu) { cpu.perCycleReference_ = true; }

};

namespace {

constexpr Cycle kBound = 1'000'000;

TEST(SkipScheduler, FreshCpuHasNoWindow)
{
    // An idle predictor with FTQ room acts next cycle: nothing to skip,
    // and the predictor wake (clamped to now + 1) is the next event.
    Cpu cpu{SimConfig{}};
    EXPECT_EQ(cpu.inertWindow(kBound), 0u);
    EXPECT_EQ(cpu.nextEventCycle(kBound), 1u);

    // With the predictor blocked and nothing in flight there is no event
    // at all: the horizon is the bound itself.
    Cpu blocked{SimConfig{}};
    CpuTestPeer::blockPredictor(blocked);
    EXPECT_EQ(blocked.nextEventCycle(kBound), kBound);
    EXPECT_EQ(blocked.nextEventCycle(), kCycleNever);
}

TEST(SkipScheduler, PredictStallOpensWindow)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::setPredictStall(cpu, 10);
    // now == 0: cycles 1..9 are inert, the stall expires at 10.
    EXPECT_EQ(cpu.nextEventCycle(kBound), 10u);
    EXPECT_EQ(cpu.inertWindow(kBound), 9u);

    // An expiring (or expired) stall means the predictor acts next cycle.
    CpuTestPeer::setPredictStall(cpu, 1);
    EXPECT_EQ(cpu.inertWindow(kBound), 0u);
    CpuTestPeer::setPredictStall(cpu, 0);
    EXPECT_EQ(cpu.inertWindow(kBound), 0u);
}

TEST(SkipScheduler, RobHeadCompletionIsTheEvent)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    CpuTestPeer::pushRob(cpu, 25);
    CpuTestPeer::pushRob(cpu, 17); // later entries are not events
    EXPECT_EQ(cpu.nextEventCycle(kBound), 25u);
    EXPECT_EQ(cpu.inertWindow(kBound), 24u);

    // An already-due head clamps to now + 1: never a window, never an
    // event in the past.
    Cpu due{SimConfig{}};
    CpuTestPeer::blockPredictor(due);
    CpuTestPeer::pushRob(due, 0);
    EXPECT_EQ(due.nextEventCycle(kBound), 1u);
    EXPECT_EQ(due.inertWindow(kBound), 0u);
}

TEST(SkipScheduler, FtqHeadArrivalIsTheEvent)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    CpuTestPeer::pushFtqGroup(cpu, /*line=*/5, /*ready=*/40,
                              /*access_pending=*/false);
    EXPECT_EQ(cpu.nextEventCycle(kBound), 40u);
    EXPECT_EQ(cpu.inertWindow(kBound), 39u);

    // A head whose line has arrived feeds fetch next cycle: no window.
    Cpu ready{SimConfig{}};
    CpuTestPeer::blockPredictor(ready);
    CpuTestPeer::pushFtqGroup(ready, 5, /*ready=*/1, false);
    EXPECT_EQ(ready.inertWindow(kBound), 0u);

    // A fresh group (its L1I access still pending) fires next cycle.
    Cpu fresh{SimConfig{}};
    CpuTestPeer::blockPredictor(fresh);
    CpuTestPeer::pushFtqGroup(fresh, 5, kCycleNever, true);
    EXPECT_EQ(fresh.inertWindow(kBound), 0u);

    // ... unless the access is blocked on a full MSHR file, where only
    // a fill (none in flight here) can unblock it: the bound holds.
    CpuTestPeer::setL1iAccessBlocked(fresh, true);
    EXPECT_EQ(fresh.inertWindow(kBound), kBound - 1);
}

TEST(SkipScheduler, CacheFillIsTheEvent)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    // A demand miss at cycle 0 puts a fill in flight; its completion is
    // the only event.
    cpu.l1i().demandAccess(/*line=*/123, /*pc=*/123 << 6, /*now=*/0);
    Cycle fill = cpu.l1i().nextFillReady();
    ASSERT_NE(fill, kCycleNever);
    ASSERT_GT(fill, 1u);
    EXPECT_EQ(cpu.nextEventCycle(kBound), fill);
    EXPECT_EQ(cpu.inertWindow(kBound), fill - 1);
}

TEST(SkipScheduler, WindowClampsToBound)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    CpuTestPeer::pushRob(cpu, 500);
    EXPECT_EQ(cpu.nextEventCycle(/*bound=*/100), 100u);
    EXPECT_EQ(cpu.inertWindow(/*bound=*/100), 99u);
}

TEST(SkipScheduler, SkipBulkChargesOneBucket)
{
    // Line-miss: FTQ head still in flight.
    Cpu miss{SimConfig{}};
    CpuTestPeer::blockPredictor(miss);
    CpuTestPeer::pushFtqGroup(miss, 5, /*ready=*/40, false);
    CpuTestPeer::skip(miss, kBound);
    EXPECT_EQ(CpuTestPeer::now(miss), 39u);
    SimStats s = miss.stats();
    EXPECT_EQ(s.fetchIdleCycles, 39u);
    EXPECT_EQ(s.fetchStallLineMiss, 39u);
    EXPECT_EQ(s.fetchStallRobFull, 0u);
    EXPECT_EQ(s.fetchStallFtqEmptyMispredict, 0u);
    EXPECT_EQ(s.fetchStallFtqEmptyStarved, 0u);

    // Redirect recovery: empty FTQ behind an unresolved branch.
    Cpu redirect{SimConfig{}};
    CpuTestPeer::blockPredictor(redirect);
    CpuTestPeer::pushRob(redirect, 25);
    CpuTestPeer::skip(redirect, kBound);
    EXPECT_EQ(CpuTestPeer::now(redirect), 24u);
    s = redirect.stats();
    EXPECT_EQ(s.fetchStallFtqEmptyMispredict, 24u);
    EXPECT_EQ(s.fetchStallLineMiss, 0u);

    // No window -> no accounting movement at all.
    Cpu busy{SimConfig{}};
    CpuTestPeer::skip(busy, kBound);
    EXPECT_EQ(CpuTestPeer::now(busy), 0u);
    EXPECT_EQ(busy.stats().fetchIdleCycles, 0u);
}

/** One detailed run driven straight through sim::Cpu. */
struct RunCase
{
    trace::Workload workload = trace::tinyWorkload();
    std::string prefetcher = "entangling-4k";
    uint64_t warmup = 20000;
    uint64_t instructions = 40000;
    uint64_t sampleInterval = 7001; ///< does not divide the budget
    bool why = false;
    bool traced = false;
    /** Functional warming + detailed windows instead of run(). */
    bool sampled = false;
};

/** What a run exposes — SimStats, registered counters, sampler rows or
 *  sampled windows, the why ledger and trace events — as one text. */
struct Observed
{
    std::string text;
    uint64_t checksExecuted = 0;
    std::optional<std::string> checkFailure;
};

std::string
dumpText(const obs::CounterRegistry &reg)
{
    obs::JsonWriter json;
    json.beginObject();
    obs::writeCounterSections(json, reg.dump());
    json.endObject();
    return json.str() + "\n";
}

/** Every SimStats field as text: the core scalars, then each cache
 *  level through the shared per-level schema. */
std::string
statsText(const SimStats &s)
{
    std::string text;
    for (uint64_t v :
         {s.instructions, s.cycles, s.branches, s.branchMispredicts,
          s.btbMisses, s.fetchStallLineMiss, s.fetchStallFtqEmptyMispredict,
          s.fetchStallFtqEmptyStarved, s.fetchStallRobFull,
          s.fetchIdleCycles, s.dramAccesses})
        text += std::to_string(v) + " ";
    obs::CounterRegistry reg;
    registerCacheStats(reg, "l1i", s.l1i);
    registerCacheStats(reg, "l1d", s.l1d);
    registerCacheStats(reg, "l2", s.l2);
    registerCacheStats(reg, "llc", s.llc);
    return text + "\n" + dumpText(reg);
}

std::string
rowText(uint64_t instructions, uint64_t cycles,
        const std::vector<uint64_t> &values)
{
    std::string text = std::to_string(instructions) + "/" +
                       std::to_string(cycles) + ":";
    for (uint64_t v : values)
        text += " " + std::to_string(v);
    return text + "\n";
}

std::string
samplesText(const obs::IntervalSampler &sampler)
{
    std::string text;
    for (const obs::Sample &row : sampler.samples())
        text += rowText(row.instructions, row.cycles, row.values);
    return text;
}

Observed
observe(const RunCase &spec, const trace::Program &program, bool reference)
{
    Cpu cpu{SimConfig{}};
    if (reference)
        CpuTestPeer::tickEveryCycle(cpu);
    std::unique_ptr<Prefetcher> pf = prefetch::makePrefetcher(spec.prefetcher);
    if (pf != nullptr)
        cpu.attachL1iPrefetcher(pf.get());
    obs::EventTracer tracer;
    if (spec.traced)
        cpu.attachTracer(&tracer);
    obs::MissAttribution why;
    if (spec.why)
        cpu.attachWhy(&why);
    obs::CounterRegistry reg;
    cpu.registerCounters(reg);
    std::unique_ptr<trace::InstructionSource> source =
        trace::makeTraceSource(spec.workload, &program)->open();

    Observed out;
    obs::IntervalSampler sampler(reg, spec.sampleInterval);
    if (spec.sampled) {
        // A hand-rolled periodic schedule: functional warm-up, then six
        // detailed windows with CPI-fed warming gaps in between, the
        // sampler ticking across all of them.
        cpu.warmFunctional(*source, spec.warmup);
        cpu.beginMeasurement();
        Cpu::WindowStats w;
        for (int i = 0; i < 6; ++i) {
            if (i > 0)
                cpu.warmFunctional(*source, 9000, w.cycles, w.instructions);
            w = cpu.runWindow(*source, 5000, &sampler);
            out.text += rowText(w.instructions, w.cycles,
                                {w.l1iDemandMisses, w.l1iUsefulPrefetches,
                                 w.l1iLatePrefetches, w.l1iPrefetchIssued});
        }
        out.text += statsText(cpu.stats());
    } else {
        out.text += statsText(cpu.run(*source, spec.instructions,
                                      spec.warmup, &sampler));
    }
    EXPECT_FALSE(sampler.samples().empty());
    out.text += samplesText(sampler);
    out.text += dumpText(reg);
    if (spec.why) {
        obs::JsonWriter json;
        json.beginObject();
        obs::writeWhySection(json, why.dump());
        json.endObject();
        out.text += json.str();
    }
    if (spec.traced) {
        tracer.finish();
        out.text += tracer.toJson();
    }
    if (cpu.invariants() != nullptr) {
        out.checksExecuted = cpu.invariants()->executed();
        out.checkFailure = cpu.invariants()->firstFailure();
    }
    return out;
}

/** Run @p spec skipping and per-cycle; require identical observables.
 *  Returns {skipping run, reference run}. */
std::pair<Observed, Observed>
expectSkipMatchesReference(const RunCase &spec)
{
    const trace::Program program = trace::buildProgram(spec.workload.program);
    Observed skip = observe(spec, program, /*reference=*/false);
    Observed ref = observe(spec, program, /*reference=*/true);
    if (skip.text != ref.text) {
        const size_t at = static_cast<size_t>(
            std::mismatch(skip.text.begin(), skip.text.end(),
                          ref.text.begin(), ref.text.end())
                .first -
            skip.text.begin());
        const size_t from = at < 60 ? 0 : at - 60;
        ADD_FAILURE() << spec.workload.name << " under " << spec.prefetcher
                      << ": skipping diverges from the per-cycle reference"
                      << " at byte " << at << "\n  skip: "
                      << skip.text.substr(from, 120)
                      << "\n  ref:  " << ref.text.substr(from, 120);
    }
    return {skip, ref};
}

trace::Workload
serverWorkload()
{
    trace::Workload w;
    EXPECT_TRUE(trace::syntheticWorkload("srv-1", w));
    return w;
}

TEST(SkipReference, EveryCategoryMatchesPerCycle)
{
    // cvpSuite(1) holds one crypto, int, fp and srv workload.
    std::vector<trace::Workload> workloads = trace::cvpSuite(1);
    workloads.push_back(trace::cloudSuite().front());
    for (const trace::Workload &w : workloads) {
        RunCase spec;
        spec.workload = w;
        expectSkipMatchesReference(spec);
    }
    RunCase none;
    none.prefetcher = "none";
    expectSkipMatchesReference(none);
}

TEST(SkipReference, WhyLedgerMatchesPerCycle)
{
    RunCase spec;
    spec.workload = serverWorkload();
    spec.why = true;
    auto [skip, ref] = expectSkipMatchesReference(spec);
    EXPECT_NE(skip.text.find("never_predicted"), std::string::npos);
}

TEST(SkipReference, TraceEventsMatchPerCycle)
{
    // Skipped windows reach the tracer as one bulk stall charge merged
    // into the open span: the event stream must be the per-cycle one.
    RunCase spec;
    spec.workload = serverWorkload();
    spec.traced = true;
    auto [skip, ref] = expectSkipMatchesReference(spec);
    EXPECT_NE(skip.text.find("\"stall\""), std::string::npos);
}

TEST(SkipReference, CheckedRunSkipsAndFiresNothing)
{
    const bool was = check::checksEnabled();
    check::setChecksEnabled(true);
    RunCase spec;
    spec.workload = serverWorkload();
    auto [skip, ref] = expectSkipMatchesReference(spec);
    check::setChecksEnabled(was);

    EXPECT_EQ(skip.checkFailure.value_or(""), "");
    // Audits run once per simulated (not skipped) cycle: fewer
    // evaluations prove the checked run took the skip path.
    EXPECT_GT(skip.checksExecuted, 0u);
    EXPECT_LT(skip.checksExecuted, ref.checksExecuted);
}

TEST(SkipReference, SampledWindowsMatchPerCycle)
{
    for (const char *config : {"none", "entangling-4k"}) {
        RunCase spec;
        spec.workload = serverWorkload();
        spec.prefetcher = config;
        spec.sampled = true;
        expectSkipMatchesReference(spec);
    }
}

/** A Cpu wired to the registry and source of one measurement-path test. */
struct Bench
{
    explicit Bench(const trace::Program &program)
        : pf(prefetch::makePrefetcher("entangling-4k")),
          source(trace::makeTraceSource(serverWorkload(), &program)->open())
    {
        cpu.attachL1iPrefetcher(pf.get());
        cpu.registerCounters(reg);
    }

    Cpu cpu{SimConfig{}};
    std::unique_ptr<Prefetcher> pf;
    obs::CounterRegistry reg;
    std::unique_ptr<trace::InstructionSource> source;
};

TEST(MeasurementPath, RunIsWarmupWindowBoundaryMeasuredWindow)
{
    // run() is nothing but the public primitives in sequence: the same
    // stats, sampler rows and registry dump as a hand-built warm-up
    // window, boundary and measured window.
    const trace::Program program =
        trace::buildProgram(serverWorkload().program);
    Bench whole(program);
    obs::IntervalSampler whole_rows(whole.reg, 7001);
    std::string run_text = statsText(
        whole.cpu.run(*whole.source, 40000, 20000, &whole_rows));
    run_text += samplesText(whole_rows) + dumpText(whole.reg);

    Bench parts(program);
    obs::IntervalSampler part_rows(parts.reg, 7001);
    parts.cpu.runWindow(*parts.source, 20000);
    parts.cpu.beginMeasurement();
    parts.cpu.runWindow(*parts.source, 40000, &part_rows);
    std::string hand_text = statsText(parts.cpu.stats());
    hand_text += samplesText(part_rows) + dumpText(parts.reg);

    EXPECT_FALSE(whole_rows.samples().empty());
    EXPECT_EQ(run_text, hand_text);
}

TEST(MeasurementPath, WarmingChargesNoCycle)
{
    // The measured-cycle ledger moves only with the timed clock: a
    // warming gap advances `now` but leaves cpu.cycles where it was, and
    // the next window adds exactly its own cycles. Checking is on, so the
    // warming fingerprint audit (which hashes the ledger) runs too.
    const bool was = check::checksEnabled();
    check::setChecksEnabled(true);
    const trace::Program program =
        trace::buildProgram(serverWorkload().program);
    Bench b(program);
    auto cycles = [&b] {
        return b.reg.dump().counter("cpu.cycles").value_or(~0ULL);
    };
    b.cpu.runWindow(*b.source, 5000);
    b.cpu.beginMeasurement();
    EXPECT_EQ(cycles(), 0u);
    Cpu::WindowStats first = b.cpu.runWindow(*b.source, 5000);
    ASSERT_GT(first.cycles, 0u);
    EXPECT_EQ(cycles(), first.cycles);

    const Cycle clock = CpuTestPeer::now(b.cpu);
    b.cpu.warmFunctional(*b.source, 20000, first.cycles,
                         first.instructions);
    EXPECT_GT(CpuTestPeer::now(b.cpu), clock);
    EXPECT_EQ(cycles(), first.cycles);

    Cpu::WindowStats second = b.cpu.runWindow(*b.source, 5000);
    EXPECT_EQ(cycles(), first.cycles + second.cycles);
    EXPECT_EQ(b.cpu.stats().cycles, first.cycles + second.cycles);
    EXPECT_EQ(b.cpu.invariants()->firstFailure().value_or(""), "");
    check::setChecksEnabled(was);
}

} // namespace
} // namespace eip::sim
