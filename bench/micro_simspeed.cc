/**
 * @file
 * Host simulation speed: MIPS (millions of simulated instructions per
 * host second) per workload category, for a no-prefetch and an
 * Entangling-4K configuration. Not a paper figure — this is the
 * measurement harness behind the simulator-performance work (DESIGN.md
 * §3.8): run it before and after a core change and compare the
 * BENCH_simspeed.json artifacts.
 *
 * Programs are pre-built through the shared cache before any timer
 * starts, so the numbers are pure simulation speed (trace synthesis
 * excluded — the same exclusion the run-manifest host_mips field makes).
 * Wall-clock noise on a busy host easily reaches tens of percent: prefer
 * interleaved repeat runs when comparing two builds.
 *
 * A second table measures SMARTS-style sampled mode (DESIGN.md §3.13)
 * against full detailed simulation at a long-run budget where sampling
 * pays off (50M instructions at scale 1; EIP_SIM_SCALE shrinks it), on
 * the synthetic categories plus the checked-in ChampSim fixture, whose
 * replayer fast-forwards in O(1) once its one-pass cache is primed.
 * Sampled-row MIPS use the instructions the schedule actually covered
 * (warmed + fast-forwarded + detailed; the tail past the last window is
 * never simulated) — the same honest numerator the run manifest reports.
 * A third table prints the speedup ratios the sampled rows achieve;
 * EXPERIMENTS.md records the committed full-scale baseline (>=5x on the
 * server and cloud categories and on the fixture).
 */

#include <chrono>

#include <sys/stat.h>

#include "bench_common.hh"

using namespace eip;

namespace {

/** Seconds of host wall-clock to run @p workload once under @p spec. */
double
timeOne(const trace::Workload &workload, const harness::RunSpec &spec,
        const trace::Program &program)
{
    auto start = std::chrono::steady_clock::now();
    harness::RunResult result = harness::runOne(workload, spec, program);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    // Keep the result observable so the run cannot be optimized away.
    if (result.stats.instructions == 0)
        std::printf("(empty run?)\n");
    return seconds;
}

/** Host-MIPS of one run (no pre-built program: trace-backed workloads
 *  stream from their file), with the honest numerator: a sampled run
 *  only covers what its schedule executed. */
double
measureMips(const trace::Workload &workload, const harness::RunSpec &spec)
{
    auto start = std::chrono::steady_clock::now();
    harness::RunResult result = harness::runOne(workload, spec);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    double covered = static_cast<double>(spec.warmup + spec.instructions);
    if (result.hasSampling)
        covered = static_cast<double>(
            result.sampling.warmedInstructions +
            result.sampling.skippedInstructions +
            result.sampling.windowInstructions);
    return seconds > 0.0 ? covered / seconds / 1e6 : 0.0;
}

/** The checked-in ChampSim fixture, via EIP_CHAMPSIM_FIXTURE or the
 *  usual source-tree locations relative to where the bench runs. */
bool
findFixture(trace::Workload &out)
{
    std::vector<std::string> candidates;
    const char *env = std::getenv("EIP_CHAMPSIM_FIXTURE");
    if (env != nullptr && *env != '\0')
        candidates.emplace_back(env);
    candidates.emplace_back("tests/data/fixture.champsimtrace.xz");
    candidates.emplace_back("../tests/data/fixture.champsimtrace.xz");
    candidates.emplace_back("../../tests/data/fixture.champsimtrace.xz");
    for (const std::string &path : candidates) {
        struct stat st;
        if (::stat(path.c_str(), &st) == 0 &&
            harness::findWorkload(path, out))
            return true;
    }
    return false;
}

/** The sampled-vs-full comparison at a budget where sampling pays off:
 *  8 detailed windows over a 50M-instruction run (EIP_SIM_SCALE scales
 *  the budget; the window/period/warm ratios stay fixed so the schedule
 *  shape survives scaling). */
void
sampledSpeedTables(const std::vector<trace::Workload> &workloads)
{
    double scale = util::envDouble("EIP_SIM_SCALE").value_or(1.0);
    harness::RunSpec full = harness::RunSpec::defaultSpec();
    full.configId = "entangling-4k";
    full.instructions =
        static_cast<uint64_t>(50000000 * scale);
    full.warmup = static_cast<uint64_t>(500000 * scale);

    harness::RunSpec sampled = full;
    sampled.sampleMode = "periodic";
    sampled.samplePeriod = std::max<uint64_t>(full.instructions / 8, 8);
    sampled.sampleWindow = std::max<uint64_t>(sampled.samplePeriod / 80, 4);
    sampled.sampleWarm = 4 * sampled.sampleWindow;

    std::vector<std::string> columns;
    for (const auto &w : workloads)
        columns.push_back(w.name);

    std::vector<std::vector<double>> cells(2);
    for (const auto &w : workloads) {
        cells[0].push_back(measureMips(w, full));
        cells[1].push_back(measureMips(w, sampled));
    }
    harness::printMatrix(
        "Sampled-mode host speed (MIPS; higher is faster)",
        {"entangling-4k-full", "entangling-4k-sampled"}, columns, cells);

    std::vector<std::vector<double>> speedup(1);
    for (size_t i = 0; i < workloads.size(); ++i)
        speedup[0].push_back(
            cells[0][i] > 0.0 ? cells[1][i] / cells[0][i] : 0.0);
    harness::printMatrix(
        "Sampled-mode speedup (x over full detailed simulation)",
        {"entangling-4k-sampled"}, columns, speedup);
}

} // namespace

int
main()
{
    bench::banner("simspeed", "host simulation speed per category");

    // One workload per CVP category plus one cloud workload: enough to
    // see the per-category spread (srv's larger footprint stresses the
    // caches hardest) without turning a speed probe into a suite run.
    std::vector<trace::Workload> workloads = bench::suite(1);
    workloads.push_back(trace::cloudSuite().front());

    const char *const configs[] = {"none", "entangling-4k"};

    // Pre-build every program outside the timed region.
    exec::ProgramCache &cache = exec::ProgramCache::global();
    std::vector<std::shared_ptr<const trace::Program>> programs;
    for (const auto &w : workloads)
        programs.push_back(cache.get(w.program));

    std::vector<std::string> config_names;
    std::vector<std::string> columns;
    for (const auto &w : workloads)
        columns.push_back(w.name);
    columns.emplace_back("all");

    std::vector<std::vector<double>> mips_cells;
    for (const char *config : configs) {
        harness::RunSpec spec = bench::spec(config);
        double insts =
            static_cast<double>(spec.warmup + spec.instructions);

        config_names.emplace_back(config);
        mips_cells.emplace_back();
        double total_seconds = 0.0;
        for (size_t i = 0; i < workloads.size(); ++i) {
            double seconds = timeOne(workloads[i], spec, *programs[i]);
            total_seconds += seconds;
            mips_cells.back().push_back(
                seconds > 0.0 ? insts / seconds / 1e6 : 0.0);
        }
        double total_insts = insts * static_cast<double>(workloads.size());
        mips_cells.back().push_back(
            total_seconds > 0.0 ? total_insts / total_seconds / 1e6 : 0.0);
    }

    harness::printMatrix("Host simulation speed (MIPS; higher is faster)",
                         config_names, columns, mips_cells);

    // Sampled-vs-full at long-run budget: every synthetic category plus
    // the ChampSim fixture when it is reachable (source tree or
    // EIP_CHAMPSIM_FIXTURE; a missing fixture drops the column rather
    // than failing a speed probe).
    std::vector<trace::Workload> sampled_workloads = workloads;
    trace::Workload fixture;
    if (findFixture(fixture))
        sampled_workloads.push_back(fixture);
    else
        std::printf("\n(ChampSim fixture not found — fixture column "
                    "skipped; set EIP_CHAMPSIM_FIXTURE)\n");
    sampledSpeedTables(sampled_workloads);

    std::printf(
        "\nReading: the first table is full detailed simulation speed per\n"
        "category; sampled rows show the SMARTS schedule's win over it\n"
        "at matched coverage; compare whole artifacts across builds for\n"
        "core-change speedups (EXPERIMENTS.md records the committed\n"
        "baseline).\n");
    return 0;
}
