/**
 * @file
 * Per-layer probes of the traced run. Each probe drives one layer's
 * public functions on the workload's own inputs and converts the span
 * it records into a cost per unit of work. Layers are separated by
 * subtraction where they cannot be called alone: Cpu::run under no
 * prefetcher minus draining the same source gives the simulator's own
 * cost, and a prefetcher's cost is its run minus the no-prefetch run.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include <unistd.h>

#include "arith.hh"
#include "bench.hh"
#include "core/dest_compression.hh"
#include "core/entangled_table.hh"
#include "exec/program_cache.hh"
#include "exec/run_batch.hh"
#include "harness/artifacts.hh"
#include "harness/canonical.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/phase.hh"
#include "prefetch/factory.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "sim/cpu.hh"
#include "spans.hh"
#include "trace/source.hh"

using namespace eip;

namespace perfbench {

namespace {

constexpr uint64_t kDrainInstructions = 1000000;
constexpr uint64_t kCpuInstructions = 300000;
constexpr uint64_t kLineupInstructions = 300000;

/** Keeps probe results observable so no loop is optimized away. */
std::atomic<uint64_t> gSink{0};

struct Built
{
    trace::Workload workload;
    trace::Program program;
};

std::unique_ptr<trace::InstructionSource>
openSource(const Built &b)
{
    ScopedSpan span("trace.open");
    return trace::makeTraceSource(b.workload, &b.program)->open();
}

/** Nanoseconds to drain @p n instructions through next(). */
uint64_t
drainNs(trace::InstructionSource &src, uint64_t n)
{
    ScopedSpan span("trace.next");
    const uint64_t t0 = nowNs();
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i)
        acc += src.next().pc;
    const uint64_t ns = nowNs() - t0;
    gSink += acc;
    return ns;
}

struct CpuRun
{
    uint64_t ns = 0;
    sim::SimStats stats;
};

/** One detailed Cpu::run of @p n instructions under @p prefetcher. */
CpuRun
cpuRun(const Built &b, const std::string &prefetcher, uint64_t n)
{
    std::unique_ptr<sim::Prefetcher> pf = prefetch::makePrefetcher(prefetcher);
    sim::Cpu cpu{sim::SimConfig{}};
    if (pf != nullptr)
        cpu.attachL1iPrefetcher(pf.get());
    std::unique_ptr<trace::InstructionSource> src = openSource(b);
    ScopedSpan span("sim.cpu_run");
    CpuRun out;
    const uint64_t t0 = nowNs();
    out.stats = cpu.run(*src, n, 0);
    out.ns = nowNs() - t0;
    return out;
}

double
perInst(uint64_t ns, uint64_t n)
{
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

void
sourceProbes(const std::vector<Built> &built, const trace::Workload &fixture,
             LayerMetrics &out)
{
    uint64_t nextNs = 0, skipNs = 0, warmNs = 0, noneNs = 0, entNs = 0;
    uint64_t cycles = 0, n = 0;
    sim::SimStats ent;
    for (const Built &b : built) {
        std::unique_ptr<trace::InstructionSource> src = openSource(b);
        nextNs += drainNs(*src, kDrainInstructions);

        src = openSource(b);
        {
            ScopedSpan span("trace.skip");
            const uint64_t t0 = nowNs();
            src->skip(kDrainInstructions);
            skipNs += nowNs() - t0;
        }

        {
            sim::Cpu cpu{sim::SimConfig{}};
            src = openSource(b);
            ScopedSpan span("sim.warm");
            const uint64_t t0 = nowNs();
            cpu.warmFunctional(*src, kDrainInstructions);
            warmNs += nowNs() - t0;
        }

        const CpuRun none = cpuRun(b, "none", kCpuInstructions);
        const CpuRun withEnt = cpuRun(b, "entangling-4k", kCpuInstructions);
        noneNs += none.ns;
        entNs += withEnt.ns;
        cycles += none.stats.cycles;
        n += kCpuInstructions;
        ent.instructions += withEnt.stats.instructions;
        ent.cycles += withEnt.stats.cycles;
        ent.l1i.demandMisses += withEnt.stats.l1i.demandMisses;
        ent.l1i.prefetchIssued += withEnt.stats.l1i.prefetchIssued;
        ent.l1i.usefulPrefetches += withEnt.stats.l1i.usefulPrefetches;
    }
    const uint64_t drained = kDrainInstructions * built.size();
    const double next = perInst(nextNs, drained);
    out["trace.next_ns_per_inst"] = next;
    out["trace.skip_ns_per_inst"] = perInst(skipNs, drained);
    out["sim.warm_ns_per_inst"] = perInst(warmNs, drained);
    out["sim.detailed_ns_per_inst"] = perInst(noneNs, n) - next;
    out["sim.host_ns_per_cycle"] = perInst(noneNs, cycles);
    out["prefetch.entangling_ns_per_inst"] =
        perInst(entNs, n) - perInst(noneNs, n);
    out["sim.ipc"] = ent.ipc();
    out["sim.l1i_mpki"] = ent.l1iMpki();
    out["prefetch.issued_per_kinst"] =
        1000.0 * static_cast<double>(ent.l1i.prefetchIssued) /
        static_cast<double>(ent.instructions);
    out["prefetch.accuracy"] =
        ent.l1i.prefetchIssued == 0
            ? 0.0
            : static_cast<double>(ent.l1i.usefulPrefetches) /
                  static_cast<double>(ent.l1i.prefetchIssued);
    out["prefetch.issued"] = static_cast<double>(ent.l1i.prefetchIssued);

    // ChampSim decode: the first pass streams through the decompressor,
    // later passes replay the replayer's in-memory copy.
    std::unique_ptr<trace::InstructionSource> champsim;
    {
        ScopedSpan span("trace.open");
        champsim = trace::makeTraceSource(fixture, nullptr)->open();
    }
    out["trace.champsim_ns_per_inst"] =
        perInst(drainNs(*champsim, kDrainInstructions), kDrainInstructions);
}

/** Lineup cost: each Fig. 6 prefetcher's run minus the no-prefetch run
 *  on the first source, averaged over the lineup. */
void
lineupProbe(const Built &b, LayerMetrics &out)
{
    const double none = perInst(cpuRun(b, "none", kLineupInstructions).ns,
                                kLineupInstructions);
    double sum = 0.0;
    const std::vector<std::string> lineup = prefetch::figure6Lineup();
    for (const std::string &id : lineup)
        sum += perInst(cpuRun(b, id, kLineupInstructions).ns,
                       kLineupInstructions) -
               none;
    out["prefetch.lineup_ns_per_inst"] = sum / static_cast<double>(lineup.size());
}

/** EntangledTable lookups (Entangling-4K geometry) over the lines the
 *  source actually fetches. */
void
tableProbe(const Built &b, LayerMetrics &out)
{
    core::EntangledTable table(4096, 16,
                               core::CompressionScheme::virtualScheme());
    std::vector<sim::Addr> lines;
    std::unique_ptr<trace::InstructionSource> src = openSource(b);
    for (int i = 0; i < 200000; ++i) {
        const sim::Addr line = src->next().pc >> 6;
        if (lines.empty() || lines.back() != line) {
            lines.push_back(line);
            table.recordBasicBlock(line, 1);
        }
    }
    ScopedSpan span("core.table_find");
    uint64_t hits = 0;
    const uint64_t t0 = nowNs();
    for (int rep = 0; rep < 20; ++rep)
        for (sim::Addr line : lines)
            hits += table.find(line) != nullptr;
    out["core.table_lookup_ns"] =
        perInst(nowNs() - t0, 20 * static_cast<uint64_t>(lines.size()));
    gSink += hits;
}

void
sampledProbe(const ProbeInputs &in, LayerMetrics &out)
{
    obs::PhaseProfiler profiler;
    harness::RunSpec spec = in.sampledSpec;
    spec.profiler = &profiler;
    {
        ScopedSpan span("harness.run_one");
        harness::runOne(in.sampledWorkload, spec);
    }
    double total = 0.0;
    std::map<std::string, double> ms;
    for (const auto &[phase, phaseMs] : profiler.totalsMs()) {
        ms[phase] += phaseMs;
        total += phaseMs;
    }
    auto share = [&](const char *phase) {
        return total > 0.0 ? ms[phase] / total : 0.0;
    };
    out["sample.window_share"] = share("window");
    out["sample.warm_share"] = share("warming");
    out["sample.skip_share"] = share("fast_forward");
}

/** The workload's cells as one batch at two jobs from an empty program
 *  cache: executor utilisation, builds and repeated cells. */
void
execProbe(const ProbeInputs &in, LayerMetrics &out)
{
    constexpr unsigned kJobs = 2;
    exec::ProgramCache &cache = exec::ProgramCache::global();
    cache.clear();
    const uint64_t buildsBefore = cache.builds();
    std::atomic<uint64_t> cellNs{0};
    ScopedSpan batchSpan("exec.batch");
    const int64_t parent = batchSpan.id();
    const uint64_t t0 = nowNs();
    exec::runBatch(in.batch, kJobs, [&](const harness::RunJob &job) {
        ScopedSpan cell("exec.cell", parent);
        const uint64_t c0 = nowNs();
        harness::RunResult r;
        if (job.workload.kind == trace::WorkloadKind::Synthetic) {
            std::shared_ptr<const trace::Program> program;
            {
                ScopedSpan span("exec.program_cache");
                program = cache.get(job.workload.program);
            }
            ScopedSpan span("harness.run_one");
            r = harness::runOne(job.workload, job.spec, *program);
        } else {
            ScopedSpan span("harness.run_one");
            r = harness::runOne(job.workload, job.spec);
        }
        cellNs += nowNs() - c0;
        return r.stats.cycles;
    });
    const double wall = secondsBetween(t0, nowNs());
    out["exec.busy_ratio"] =
        busyRatio(static_cast<double>(cellNs.load()) / 1e9, wall, kJobs);
    out["exec.program_cache_builds"] =
        static_cast<double>(cache.builds() - buildsBefore);
    std::set<std::string> keys;
    const std::string git = obs::buildGitDescribe();
    uint64_t duplicates = 0;
    for (const harness::RunJob &job : in.batch)
        duplicates += !keys
                           .insert(harness::resultCacheKey(
                               git, sim::SimConfig{}, job.spec, job.workload))
                           .second;
    out["exec.duplicate_cells"] = static_cast<double>(duplicates);
}

/** Artifact rendering and parsing on the first few batch jobs. */
void
artifactProbe(const ProbeInputs &in, LayerMetrics &out)
{
    double serializeMs = 0.0, bytes = 0.0, parseNs = 0.0, parsedBytes = 0.0;
    const size_t jobs = std::min<size_t>(4, in.batch.size());
    for (size_t i = 0; i < jobs; ++i) {
        obs::PhaseProfiler profiler;
        harness::ArtifactRun run;
        {
            ScopedSpan span("harness.artifact");
            run = harness::runJobArtifact(in.batch[i], true, &profiler);
        }
        for (const auto &[phase, ms] : profiler.totalsMs())
            if (phase == "serialize")
                serializeMs += ms;
        bytes += static_cast<double>(run.json.size());
        ScopedSpan span("obs.parse_json");
        for (int rep = 0; rep < 20; ++rep) {
            const uint64_t t0 = nowNs();
            gSink += obs::parseJson(run.json).has_value();
            parseNs += static_cast<double>(nowNs() - t0);
            parsedBytes += static_cast<double>(run.json.size());
        }
    }
    out["harness.artifact_ms"] = serializeMs / static_cast<double>(jobs);
    out["harness.artifact_kb"] = bytes / 1024.0 / static_cast<double>(jobs);
    out["obs.json_parse_us_per_kb"] = parseNs / 1000.0 / (parsedBytes / 1024.0);
}

/** A short daemon session on the workload's requests: cold submits,
 *  their in-process twins, hot resubmits and stats round trips. */
void
serveProbe(Context &ctx, const ProbeInputs &in, LayerMetrics &out)
{
    serve::DaemonOptions options;
    options.socketPath =
        ctx.opts.outDir + "/probe-" + std::to_string(getpid()) + ".sock";
    options.workers = 2;
    options.queueDepth = 2;
    serve::Daemon daemon(options);
    std::string error;
    serve::Client client;
    if (!daemon.start(&error) || !client.connect(options.socketPath, &error)) {
        std::fprintf(stderr, "perfbench: serve probe: %s\n", error.c_str());
        std::exit(1);
    }

    std::vector<double> coldMs, inProcessMs;
    uint64_t requests = 0, hits = 0, rejected = 0;
    auto submit = [&](serve::RunRequest run, serve::SubmitOutcome &outcome) {
        ScopedSpan span("serve.submit");
        for (;;) {
            ++requests;
            if (!client.submit(run, outcome, &error))
                return false;
            if (!outcome.rejected)
                return outcome.accepted;
            ++rejected;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    };
    // Cold keys unique to this probe: the interval only reshapes the
    // artifact's time series.
    uint64_t serial = 1;
    for (serve::RunRequest run : in.serveRequests) {
        run.sampleInterval = 3000 + serial++;
        serve::SubmitOutcome outcome;
        serve::JobView view;
        const uint64_t t0 = nowNs();
        if (!submit(run, outcome) ||
            !client.waitTerminal(outcome.job, view, 60.0, &error) ||
            !client.fetch(outcome.job, view, &error))
            continue;
        coldMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);

        trace::Workload workload;
        harness::findWorkload(run.workload, workload);
        const uint64_t i0 = nowNs();
        {
            ScopedSpan span("harness.run_one");
            harness::runOne(workload, serve::toRunSpec(run));
        }
        inProcessMs.push_back(static_cast<double>(nowNs() - i0) / 1e6);

        for (int rep = 0; rep < 20; ++rep) {
            serve::SubmitOutcome again;
            if (submit(run, again) && again.served == "cache")
                ++hits;
        }
    }
    std::vector<double> statsUs;
    for (int rep = 0; rep < 200; ++rep) {
        std::string stats;
        ScopedSpan span("serve.stats");
        const uint64_t t0 = nowNs();
        if (client.stats(stats, &error))
            statsUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    client.close();
    daemon.stop();

    out["serve.stats_rtt_us"] = median(statsUs);
    out["serve.hit_ratio"] =
        requests == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(requests);
    out["serve.requests"] = static_cast<double>(requests);
    out["serve.rejected_share"] =
        requests == 0
            ? 0.0
            : static_cast<double>(rejected) / static_cast<double>(requests);
    out["serve.cold_overhead_ms"] = median(coldMs) - median(inProcessMs);
}

} // namespace

void
runLayerProbes(Context &ctx, const ProbeInputs &in, LayerMetrics &out)
{
    std::vector<Built> built;
    double buildMs = 0.0;
    for (const trace::Workload &w : in.synthetic) {
        ScopedSpan span("trace.build_program");
        const uint64_t t0 = nowNs();
        built.push_back({w, trace::buildProgram(w.program)});
        buildMs += static_cast<double>(nowNs() - t0) / 1e6;
    }
    out["trace.program_build_ms"] = buildMs / static_cast<double>(built.size());
    out["trace.catalogue_ms"] = catalogueMs();

    sourceProbes(built, fixtureWorkload(ctx), out);
    lineupProbe(built.front(), out);
    tableProbe(built.front(), out);
    sampledProbe(in, out);
    execProbe(in, out);
    artifactProbe(in, out);
    serveProbe(ctx, in, out);
}

} // namespace perfbench
