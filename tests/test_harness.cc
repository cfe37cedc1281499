/**
 * @file
 * Tests for the experiment harness (runner, report helpers) and the energy
 * model.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "energy/energy_model.hh"
#include "harness/canonical.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "trace/executor.hh"
#include "trace/program_builder.hh"
#include "trace/trace_file.hh"

namespace eip::harness {
namespace {

RunSpec
quickSpec(const std::string &id)
{
    RunSpec spec;
    spec.configId = id;
    spec.instructions = 60000;
    spec.warmup = 20000;
    return spec;
}

TEST(Runner, BaselineRunProducesStats)
{
    trace::Workload w = trace::tinyWorkload();
    RunResult r = runOne(w, quickSpec("none"));
    EXPECT_EQ(r.workload, "tiny");
    EXPECT_EQ(r.configName, "no");
    EXPECT_GT(r.stats.ipc(), 0.0);
    EXPECT_FALSE(r.hasEntanglingAnalysis);
    EXPECT_DOUBLE_EQ(r.storageKB, 0.0);
}

TEST(Runner, PrefetcherRunReportsNameAndStorage)
{
    trace::Workload w = trace::tinyWorkload();
    RunResult r = runOne(w, quickSpec("entangling-4k"));
    EXPECT_EQ(r.configName, "Entangling-4K");
    EXPECT_NEAR(r.storageKB, 40.74, 0.05);
    EXPECT_TRUE(r.hasEntanglingAnalysis);
}

TEST(Runner, IdealConfigHasNoMisses)
{
    trace::Workload w = trace::tinyWorkload();
    RunResult r = runOne(w, quickSpec("ideal"));
    EXPECT_EQ(r.stats.l1i.demandMisses, 0u);
    EXPECT_EQ(r.configName, "ideal");
}

TEST(Runner, LargerL1iConfigsRun)
{
    trace::Workload w = trace::tinyWorkload();
    RunResult small = runOne(w, quickSpec("none"));
    RunResult big = runOne(w, quickSpec("l1i-96kb"));
    EXPECT_LE(big.stats.l1i.demandMisses, small.stats.l1i.demandMisses);
}

TEST(Runner, PhysicalFlagPropagates)
{
    trace::Workload w = trace::tinyWorkload();
    RunSpec spec = quickSpec("entangling-2k-phys");
    spec.physicalL1i = true;
    RunResult r = runOne(w, spec);
    EXPECT_EQ(r.configName, "Entangling-2K-phys");
    EXPECT_GT(r.stats.ipc(), 0.0);
}

TEST(Runner, DataPrefetcherReducesL1dMisses)
{
    trace::Workload w = trace::tinyWorkload();
    RunSpec plain = quickSpec("none");
    plain.instructions = 120000;
    RunSpec with_stride = plain;
    with_stride.dataPrefetcher = "stride";
    RunResult a = runOne(w, plain);
    RunResult b = runOne(w, with_stride);
    EXPECT_LT(b.stats.l1d.demandMisses, a.stats.l1d.demandMisses);
    EXPECT_GT(b.stats.l1d.usefulPrefetches, 0u);
}

TEST(Runner, SuiteRunsAllWorkloads)
{
    auto suite = std::vector<trace::Workload>{trace::tinyWorkload(1),
                                              trace::tinyWorkload(2)};
    auto results = runSuite(suite, quickSpec("nextline"));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].configName, "NextLine");
}

TEST(Runner, GeomeanSpeedupOfSelfIsOne)
{
    auto suite = std::vector<trace::Workload>{trace::tinyWorkload(1)};
    auto base = runSuite(suite, quickSpec("none"));
    EXPECT_NEAR(geomeanSpeedup(base, base), 1.0, 1e-12);
}

TEST(Catalogue, OrderIsCvpThenCloudThenTiny)
{
    std::vector<std::string> names;
    for (const trace::Workload &w : defaultCatalogue())
        names.push_back(w.name);
    const std::vector<std::string> want = {
        "crypto-1", "crypto-2", "crypto-3", "int-1", "int-2", "int-3",
        "fp-1",     "fp-2",     "fp-3",     "srv-1", "srv-2", "srv-3",
        "cassandra", "cloud9", "nutch", "streaming", "tiny"};
    EXPECT_EQ(names, want);
}

TEST(Catalogue, EveryEntryResolvesByName)
{
    for (const trace::Workload &w : defaultCatalogue()) {
        trace::Workload found;
        ASSERT_TRUE(findWorkload(w.name, found)) << w.name;
        EXPECT_EQ(canonicalWorkload(found), canonicalWorkload(w));
    }
}

TEST(Catalogue, BareCategoryFallsBackToItsFirstSeed)
{
    for (const char *cat : {"crypto", "int", "fp", "srv"}) {
        trace::Workload bare, first;
        ASSERT_TRUE(findWorkload(cat, bare)) << cat;
        ASSERT_TRUE(findWorkload(std::string(cat) + "-1", first));
        EXPECT_EQ(canonicalWorkload(bare), canonicalWorkload(first));
    }
}

TEST(Catalogue, UnknownNamesResolveToNothing)
{
    for (const char *name :
         {"", "nope", "srv-4", "crypto-0", "srv-", "cloud", "tiny-1",
          "Cassandra", "srv-1 "}) {
        trace::Workload w;
        EXPECT_FALSE(findWorkload(name, w)) << "'" << name << "'";
    }
}

TEST(MixedCatalogue, AdmitsQualifyingTraceSkipsRestWithNotes)
{
    // A captured .trc of srv-1 carries srv-1's large code footprint, so
    // it must clear the same MPKI proxy that admitted srv-1 itself; an
    // unreadable path and a duplicate listing must be skipped with a
    // note each, never fatally.
    trace::Workload srv;
    ASSERT_TRUE(findWorkload("srv-1", srv));
    std::string path = ::testing::TempDir() + "eip_mixed_srv1.trc";
    {
        trace::Program prog = trace::buildProgram(srv.program);
        trace::Executor exec(prog, srv.exec);
        trace::captureTrace(path, exec, 400000);
    }

    std::vector<std::string> notes;
    auto suite = mixedCatalogue({path, "/nope/missing.trc", path}, &notes);
    std::remove(path.c_str());

    size_t base = defaultCatalogue().size();
    ASSERT_EQ(suite.size(), base + 1);
    EXPECT_EQ(suite.back().kind, trace::WorkloadKind::EipTrace);
    EXPECT_EQ(suite.back().tracePath, path);
    ASSERT_EQ(notes.size(), 3u);
    EXPECT_NE(notes[0].find("admitted"), std::string::npos) << notes[0];
    EXPECT_NE(notes[1].find("skipped"), std::string::npos) << notes[1];
    EXPECT_NE(notes[2].find("duplicate"), std::string::npos) << notes[2];
}

TEST(MixedCatalogue, RejectsTracesBelowTheFootprintProxy)
{
    // tiny's footprint is a fraction of the 40KB threshold; a capture
    // of it must be gated out exactly like an unqualifying seed.
    trace::Workload tiny = trace::tinyWorkload();
    std::string path = ::testing::TempDir() + "eip_mixed_tiny.trc";
    {
        trace::Program prog = trace::buildProgram(tiny.program);
        trace::Executor exec(prog, tiny.exec);
        trace::captureTrace(path, exec, 400000);
    }

    trace::Workload as_trace;
    ASSERT_TRUE(findWorkload(path, as_trace));
    uint64_t footprint = 0;
    EXPECT_FALSE(trace::workloadQualifies(as_trace, &footprint));
    EXPECT_LT(footprint, 40u * 1024u);
    EXPECT_GT(footprint, 0u);
    // The one probe reads the synthetic source and its capture alike.
    uint64_t synthetic = 0;
    EXPECT_FALSE(trace::workloadQualifies(tiny, &synthetic));
    EXPECT_EQ(synthetic, footprint);

    std::vector<std::string> notes;
    auto suite = mixedCatalogue({path}, &notes);
    std::remove(path.c_str());
    EXPECT_EQ(suite.size(), defaultCatalogue().size());
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_NE(notes[0].find("below"), std::string::npos) << notes[0];
}

TEST(Runner, Deterministic)
{
    trace::Workload w = trace::tinyWorkload();
    RunResult a = runOne(w, quickSpec("entangling-2k"));
    RunResult b = runOne(w, quickSpec("entangling-2k"));
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.l1i.demandMisses, b.stats.l1i.demandMisses);
    EXPECT_EQ(a.stats.l1i.prefetchIssued, b.stats.l1i.prefetchIssued);
}

TEST(Report, CollectExtractsMetric)
{
    RunResult r;
    r.stats.instructions = 100;
    r.stats.cycles = 50;
    std::vector<RunResult> results{r};
    auto values = collect(results, [](const RunResult &x) {
        return x.stats.ipc();
    });
    ASSERT_EQ(values.size(), 1u);
    EXPECT_DOUBLE_EQ(values[0], 2.0);
}

TEST(Energy, MorePrefetchTrafficCostsMoreL1iEnergy)
{
    energy::EnergyModel model;
    sim::SimStats quiet;
    quiet.l1i.demandAccesses = 1000;
    quiet.l1i.demandHits = 900;
    quiet.l1i.fills = 100;
    sim::SimStats noisy = quiet;
    noisy.l1i.prefetchIssued = 500;
    noisy.l1i.fills += 500;
    EXPECT_GT(model.evaluate(noisy).l1i, model.evaluate(quiet).l1i);
}

TEST(Energy, LevelsAccumulateIntoTotal)
{
    energy::EnergyModel model;
    sim::SimStats stats;
    stats.l1i.demandAccesses = 10;
    stats.l1d.demandAccesses = 10;
    stats.l2.demandAccesses = 10;
    stats.llc.demandAccesses = 10;
    auto breakdown = model.evaluate(stats);
    EXPECT_NEAR(breakdown.total(),
                breakdown.l1i + breakdown.l1d + breakdown.l2 + breakdown.llc,
                1e-12);
    EXPECT_GT(breakdown.llc, breakdown.l1i); // bigger array, costlier access
}

TEST(Energy, AccurayPrefetcherSavesLowerLevelEnergy)
{
    // A covered L1I (fewer L2 accesses) must cost less at L2 even if the
    // L1I itself sees more traffic — the Table IV effect.
    energy::EnergyModel model;
    sim::SimStats base;
    base.l1i.demandAccesses = 10000;
    base.l1i.demandHits = 8000;
    base.l2.demandAccesses = 2000;
    base.l2.demandHits = 2000;
    base.l2.fills = 2000;

    sim::SimStats covered = base;
    covered.l1i.prefetchIssued = 1000;
    covered.l1i.demandHits = 9500;
    covered.l2.demandAccesses = 1500;
    covered.l2.demandHits = 1500;
    covered.l2.fills = 1500;

    EXPECT_LT(model.evaluate(covered).l2, model.evaluate(base).l2);
}

/** Parameterized smoke run across every figure-6 configuration. */
class EveryConfigRuns : public ::testing::TestWithParam<std::string>
{};

TEST_P(EveryConfigRuns, TinyWorkloadCompletes)
{
    trace::Workload w = trace::tinyWorkload();
    RunResult r = runOne(w, quickSpec(GetParam()));
    EXPECT_GT(r.stats.ipc(), 0.0) << GetParam();
    EXPECT_GT(r.stats.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Figure6, EveryConfigRuns,
    ::testing::Values("none", "ideal", "l1i-64kb", "l1i-96kb", "nextline",
                      "sn4l", "mana-2k", "mana-4k", "mana-8k", "rdip",
                      "djolt", "fnl+mma", "epi", "entangling-2k",
                      "entangling-4k", "entangling-8k"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace eip::harness
