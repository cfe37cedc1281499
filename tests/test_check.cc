/**
 * @file
 * Tests for the src/check subsystem: the Invariants registry mechanics
 * (stride, execution counting, the non-fatal firstFailure probe and the
 * fatal run path), the structure-level audits registered by the
 * Entangled table and History buffer, a checked end-to-end CPU run, and
 * the artifact differential gate (pathAllowed / diffJson / DiffRunner).
 */

#include <gtest/gtest.h>

#include "check/diff.hh"
#include "check/invariants.hh"
#include "core/entangled_table.hh"
#include "core/entangling.hh"
#include "core/history_buffer.hh"
#include "obs/json.hh"
#include "obs/why.hh"
#include "sim/cpu.hh"
#include "trace/workloads.hh"

namespace eip::check {
namespace {

// ---------------------------------------------------------------------
// Invariants registry mechanics
// ---------------------------------------------------------------------

TEST(Invariants, RunsEveryCheckOncePerCall)
{
    Invariants inv;
    int a = 0, b = 0;
    inv.add("a", [&](std::string &) { return ++a, true; });
    inv.add("b", [&](std::string &) { return ++b, true; });
    EXPECT_EQ(inv.size(), 2u);
    for (uint64_t cycle = 0; cycle < 5; ++cycle)
        inv.run(cycle);
    EXPECT_EQ(a, 5);
    EXPECT_EQ(b, 5);
    EXPECT_EQ(inv.executed(), 10u);
}

TEST(Invariants, StridedCheckRunsEveryStridethCall)
{
    Invariants inv;
    int strided = 0;
    inv.add("strided", [&](std::string &) { return ++strided, true; },
            /*stride=*/4);
    for (uint64_t cycle = 0; cycle < 12; ++cycle)
        inv.run(cycle);
    EXPECT_EQ(strided, 3); // calls 4, 8, 12
}

TEST(Invariants, RunAllIgnoresStride)
{
    Invariants inv;
    int strided = 0;
    inv.add("strided", [&](std::string &) { return ++strided, true; },
            /*stride=*/1000);
    inv.runAll(0);
    EXPECT_EQ(strided, 1);
}

TEST(Invariants, FirstFailureReportsNameAndDetail)
{
    Invariants inv;
    inv.add("holds", [](std::string &) { return true; });
    inv.add("breaks", [](std::string &detail) {
        detail = "x=1 y=2";
        return false;
    });
    std::optional<std::string> failure = inv.firstFailure();
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(*failure, "breaks: x=1 y=2");
}

TEST(Invariants, FirstFailureEmptyWhenAllHold)
{
    Invariants inv;
    inv.add("holds", [](std::string &) { return true; });
    EXPECT_FALSE(inv.firstFailure().has_value());
}

TEST(InvariantsDeathTest, ViolationIsFatalWithContext)
{
    Invariants inv;
    inv.add("boom", [](std::string &detail) {
        detail = "observed=7 expected=8";
        return false;
    });
    EXPECT_DEATH(inv.run(42),
                 "invariant 'boom' violated at cycle 42: "
                 "observed=7 expected=8");
}

TEST(Invariants, EnableFlagRoundTrips)
{
    setChecksEnabled(true);
    EXPECT_TRUE(checksEnabled());
    setChecksEnabled(false);
    EXPECT_FALSE(checksEnabled());
}

// ---------------------------------------------------------------------
// Structure-level audits: Entangled table and History buffer
// ---------------------------------------------------------------------

TEST(StructureAudits, HealthyTablePassesAllSets)
{
    core::EntangledTable t(256, 16,
                           core::CompressionScheme::virtualScheme());
    for (sim::Addr line = 1; line <= 300; ++line)
        t.recordBasicBlock(line * 0x40, 2);
    Invariants inv;
    t.registerInvariants(inv, "table");
    // One firstFailure() pass audits one set; sweep every set.
    for (uint32_t s = 0; s < t.sets(); ++s)
        EXPECT_FALSE(inv.firstFailure().has_value());
}

TEST(StructureAudits, CorruptedTagIsCaughtBySetAudit)
{
    core::EntangledTable t(256, 16,
                           core::CompressionScheme::virtualScheme());
    core::EntangledEntry *e = t.recordBasicBlock(0x4000, 1);
    auto [set, way] = t.coordsOf(*e);
    t.tagAt(set, way) ^= 1;
    Invariants inv;
    t.registerInvariants(inv, "table");
    bool caught = false;
    for (uint32_t s = 0; s < t.sets() && !caught; ++s) {
        std::optional<std::string> failure = inv.firstFailure();
        if (failure.has_value()) {
            EXPECT_NE(failure->find("table.set_audit"), std::string::npos)
                << *failure;
            caught = true;
        }
    }
    EXPECT_TRUE(caught);
}

TEST(StructureAudits, HealthyHistoryPassesAndCorruptionIsCaught)
{
    core::HistoryBuffer hist(16, 20);
    for (uint64_t i = 1; i <= 40; ++i)
        hist.push(i * 0x40, i * 10);
    Invariants inv;
    hist.registerInvariants(inv, "history");
    EXPECT_FALSE(inv.firstFailure().has_value());
    // A generation from the future means a slot was written without a
    // push — exactly the corruption the audit exists to catch.
    hist.at(hist.newest()).generation = hist.generations() + 100;
    std::optional<std::string> failure = inv.firstFailure();
    ASSERT_TRUE(failure.has_value());
    EXPECT_NE(failure->find("history.audit"), std::string::npos) << *failure;
}

// ---------------------------------------------------------------------
// End-to-end: a checked CPU run executes the registered invariants
// ---------------------------------------------------------------------

TEST(CheckedRun, CpuRegistersAndExecutesInvariants)
{
    setChecksEnabled(true);
    trace::Workload w = trace::tinyWorkload(1);
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    core::EntanglingPrefetcher pf(core::EntanglingConfig::preset2K());
    sim::SimConfig cfg;
    sim::Cpu cpu(cfg);
    cpu.attachL1iPrefetcher(&pf);
    cpu.run(exec, 50000, 10000);
    ASSERT_NE(cpu.invariants(), nullptr);
    // Cache + front-end + prefetcher checks registered and exercised.
    EXPECT_GT(cpu.invariants()->size(), 5u);
    EXPECT_GT(cpu.invariants()->executed(), 50000u);
    setChecksEnabled(false);
}

TEST(CheckedRun, UncheckedCpuPaysNoRegistry)
{
    setChecksEnabled(false);
    sim::SimConfig cfg;
    sim::Cpu cpu(cfg);
    EXPECT_EQ(cpu.invariants(), nullptr);
}

TEST(CheckedRun, BalancedBlameLedgerSurvivesACheckedRun)
{
    setChecksEnabled(true);
    trace::Workload w = trace::tinyWorkload(1);
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    core::EntanglingPrefetcher pf(core::EntanglingConfig::preset2K());
    sim::SimConfig cfg;
    sim::Cpu cpu(cfg);
    cpu.attachL1iPrefetcher(&pf);
    obs::MissAttribution why;
    cpu.attachWhy(&why);
    // The why.blame_partition invariant is audited every checked cycle;
    // reaching the end of the run proves the ledger partitioned the
    // demand misses at every step.
    cpu.run(exec, 50000, 10000);
    EXPECT_FALSE(cpu.invariants()->firstFailure().has_value());
    EXPECT_GT(why.total(), 0u);
    setChecksEnabled(false);
}

TEST(CheckedRunDeathTest, UnbalancedBlameLedgerIsFatal)
{
    setChecksEnabled(true);
    trace::Workload w = trace::tinyWorkload(1);
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    core::EntanglingPrefetcher pf(core::EntanglingConfig::preset2K());
    sim::SimConfig cfg;
    sim::Cpu cpu(cfg);
    cpu.attachL1iPrefetcher(&pf);
    obs::MissAttribution why;
    cpu.attachWhy(&why);
    cpu.run(exec, 50000, 10000);
    // A miss the cache never saw unbalances the ledger: blame_total
    // exceeds l1i.demand_misses, and the next audit must be fatal with
    // the partition arithmetic in the detail.
    why.recordMiss(obs::MissBlame::NeverPredicted, 0xdead40, 0x401000);
    ASSERT_NE(cpu.invariants(), nullptr);
    EXPECT_DEATH(cpu.invariants()->run(99),
                 "invariant 'why.blame_partition' violated at cycle 99: "
                 "blame_total=");
    setChecksEnabled(false);
}

// ---------------------------------------------------------------------
// Artifact differential gate
// ---------------------------------------------------------------------

TEST(PathAllowed, MatchesSelfAndNestedOnly)
{
    std::vector<std::string> allow = {"manifest.wall_clock_seconds",
                                      "samples"};
    EXPECT_TRUE(pathAllowed("manifest.wall_clock_seconds", allow));
    EXPECT_TRUE(pathAllowed("samples", allow));
    EXPECT_TRUE(pathAllowed("samples[3].ipc", allow));
    EXPECT_TRUE(pathAllowed("samples.interval", allow));
    EXPECT_FALSE(pathAllowed("manifest.wall_clock", allow));
    EXPECT_FALSE(pathAllowed("samples_total", allow)); // no '.'/'[' boundary
    EXPECT_FALSE(pathAllowed("stats.ipc", allow));
}

obs::JsonValue
parsed(const std::string &text)
{
    std::string error;
    std::optional<obs::JsonValue> v = obs::parseJson(text, &error);
    EXPECT_TRUE(v.has_value()) << error;
    return *v;
}

TEST(DiffJson, IdenticalDocumentsAreClean)
{
    obs::JsonValue a = parsed(R"({"x": 1, "y": [1, 2], "z": {"k": "v"}})");
    size_t compared = 0;
    EXPECT_TRUE(diffJson(a, a, {}, &compared).empty());
    EXPECT_GE(compared, 4u);
}

TEST(DiffJson, LeafDivergenceCarriesPathAndValues)
{
    obs::JsonValue a = parsed(R"({"stats": {"ipc": 1.5}})");
    obs::JsonValue b = parsed(R"({"stats": {"ipc": 1.75}})");
    std::vector<DiffEntry> diffs = diffJson(a, b, {});
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].path, "stats.ipc");
    EXPECT_NE(diffs[0].lhs, diffs[0].rhs);
}

TEST(DiffJson, ArrayAndAbsenceDivergences)
{
    obs::JsonValue a = parsed(R"({"runs": [1, 2, 3], "only_a": true})");
    obs::JsonValue b = parsed(R"({"runs": [1, 9, 3]})");
    std::vector<DiffEntry> diffs = diffJson(a, b, {});
    ASSERT_EQ(diffs.size(), 2u);
    bool saw_element = false, saw_absent = false;
    for (const DiffEntry &d : diffs) {
        if (d.path == "runs[1]")
            saw_element = true;
        if (d.path == "only_a" && d.rhs == "<absent>")
            saw_absent = true;
    }
    EXPECT_TRUE(saw_element);
    EXPECT_TRUE(saw_absent);
}

TEST(DiffJson, AllowListSkipsSubtrees)
{
    obs::JsonValue a =
        parsed(R"({"manifest": {"wall_clock_seconds": 1.2}, "ipc": 2.0})");
    obs::JsonValue b =
        parsed(R"({"manifest": {"wall_clock_seconds": 9.9}, "ipc": 2.0})");
    EXPECT_FALSE(diffJson(a, b, {}).empty());
    EXPECT_TRUE(diffJson(a, b, {"manifest.wall_clock_seconds"}).empty());
    EXPECT_TRUE(diffJson(a, b, {"manifest"}).empty());
}

TEST(DiffRunner, GatesOnUnexplainedDivergence)
{
    DiffRunner runner;
    EXPECT_TRUE(runner.compare("same", R"({"a": 1})", R"({"a": 1})", {}));
    EXPECT_TRUE(runner.allClean());
    EXPECT_FALSE(runner.compare("diff", R"({"a": 1})", R"({"a": 2})", {}));
    EXPECT_FALSE(runner.allClean());
    ASSERT_EQ(runner.comparisons().size(), 2u);
    EXPECT_TRUE(runner.comparisons()[0].clean());
    EXPECT_EQ(runner.comparisons()[1].divergences.size(), 1u);
    std::string report = runner.report();
    EXPECT_NE(report.find("diff"), std::string::npos);
    EXPECT_NE(report.find("a"), std::string::npos);
}

TEST(DiffRunner, ParseErrorIsNotClean)
{
    DiffRunner runner;
    EXPECT_FALSE(runner.compare("broken", "{not json", R"({"a": 1})", {}));
    EXPECT_FALSE(runner.allClean());
    EXPECT_FALSE(runner.comparisons()[0].error.empty());
}

} // namespace
} // namespace eip::check
