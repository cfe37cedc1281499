#include "harness/runner.hh"

#include <memory>
#include <unordered_set>

#include "core/entangling.hh"
#include "exec/jobs.hh"
#include "exec/program_cache.hh"
#include "exec/run_batch.hh"
#include "obs/phase.hh"
#include "prefetch/factory.hh"
#include "sample/sampled.hh"
#include "sim/cpu.hh"
#include "trace/source.hh"
#include "util/env.hh"
#include "util/panic.hh"
#include "util/stats_math.hh"

namespace eip::harness {

RunSpec
RunSpec::defaultSpec()
{
    RunSpec spec;
    if (auto scale = util::envDouble("EIP_SIM_SCALE")) {
        if (*scale <= 0.0)
            EIP_FATAL("EIP_SIM_SCALE: must be a positive scale factor");
        spec.instructions =
            static_cast<uint64_t>(spec.instructions * *scale);
        // The warm-up must cover at least one recurrence cycle of the
        // synthetic workloads or no history-based prefetcher can
        // train; scaling only ever lengthens it.
        if (*scale > 1.0)
            spec.warmup = static_cast<uint64_t>(spec.warmup * *scale);
    }
    return spec;
}

namespace {

/** The cache configurations: each id and what it does to the SimConfig. */
const std::pair<const char *, void (*)(sim::SimConfig &)> kCacheConfigs[] = {
    {"ideal", [](sim::SimConfig &cfg) { cfg.l1i.idealHit = true; }},
    {"l1i-64kb", [](sim::SimConfig &cfg) { cfg.enlargeL1i(64); }},
    {"l1i-96kb", [](sim::SimConfig &cfg) { cfg.enlargeL1i(96); }},
};

} // namespace

bool
knownConfigId(const std::string &id)
{
    for (const auto &config : kCacheConfigs)
        if (id == config.first)
            return true;
    return prefetch::knownPrefetcherId(id);
}

std::vector<std::string>
configIds()
{
    std::vector<std::string> ids = prefetch::prefetcherIds();
    for (const auto &config : kCacheConfigs)
        ids.emplace_back(config.first);
    return ids;
}

std::vector<trace::Workload>
defaultCatalogue()
{
    std::vector<trace::Workload> all = trace::cvpSuite();
    for (trace::Workload &w : trace::cloudSuite())
        all.push_back(std::move(w));
    all.push_back(trace::tinyWorkload());
    return all;
}

std::vector<trace::Workload>
mixedCatalogue(const std::vector<std::string> &trace_paths,
               std::vector<std::string> *notes)
{
    std::vector<trace::Workload> suite = defaultCatalogue();
    auto note = [notes](const std::string &line) {
        if (notes != nullptr)
            notes->push_back(line);
    };
    std::unordered_set<std::string> seen;
    for (const std::string &path : trace_paths) {
        if (!seen.insert(path).second) {
            note(path + ": duplicate path — listed once already");
            continue;
        }
        trace::Workload w;
        std::string error;
        if (!trace::tryTraceWorkload(path, w, &error)) {
            note(path + ": skipped (" + error + ")");
            continue;
        }
        uint64_t footprint = 0;
        if (!trace::workloadQualifies(w, &footprint)) {
            note(path + ": skipped — code footprint " +
                 std::to_string(footprint / 1024) +
                 " KB is below the >= 1 L1I MPKI proxy (40 KB), "
                 "mirroring the synthetic seed filter");
            continue;
        }
        note(path + ": admitted (" + std::to_string(footprint / 1024) +
             " KB code footprint)");
        suite.push_back(std::move(w));
    }
    return suite;
}

bool
findWorkload(const std::string &name, trace::Workload &out)
{
    // On-disk traces resolve by path, not against the catalogue; the
    // non-fatal factory keeps a daemon alive when a submission names a
    // file that is missing or unreadable.
    if (trace::isTracePath(name))
        return trace::tryTraceWorkload(name, out);
    return trace::syntheticWorkload(name, out) ||
           trace::syntheticWorkload(name + "-1", out);
}

namespace {

RunResult runImpl(const trace::Workload &workload, const RunSpec &spec,
                  const trace::Program *program);

} // namespace

RunResult
runOne(const trace::Workload &workload, const RunSpec &spec)
{
    // Trace-backed workloads stream from disk: nothing to build.
    if (workload.kind != trace::WorkloadKind::Synthetic)
        return runImpl(workload, spec, nullptr);
    std::shared_ptr<const trace::Program> program;
    {
        obs::PhaseProfiler::Scope scope(spec.profiler, "program_build");
        program = exec::ProgramCache::global().get(workload.program);
    }
    return runImpl(workload, spec, program.get());
}

RunResult
runOne(const trace::Workload &workload, const RunSpec &spec,
       const trace::Program &program)
{
    EIP_ASSERT(workload.kind == trace::WorkloadKind::Synthetic,
               "prebuilt-program runOne is for synthetic workloads");
    return runImpl(workload, spec, &program);
}

namespace {

RunResult
runImpl(const trace::Workload &workload, const RunSpec &spec,
        const trace::Program *program)
{
    sim::SimConfig cfg;
    cfg.physicalL1I = spec.physicalL1i;
    cfg.modelWrongPath = spec.wrongPath;

    std::string pf_id = spec.configId;
    for (const auto &[id, apply] : kCacheConfigs) {
        if (spec.configId == id) {
            apply(cfg);
            pf_id = "none";
        }
    }

    std::unique_ptr<sim::Prefetcher> prefetcher;
    std::unique_ptr<sim::Prefetcher> data_prefetcher;
    {
        obs::PhaseProfiler::Scope scope(spec.profiler, "prefetcher");
        prefetcher = prefetch::makePrefetcher(pf_id);
        data_prefetcher = prefetch::makePrefetcher(spec.dataPrefetcher);
    }

    sim::Cpu cpu(cfg);
    if (prefetcher != nullptr)
        cpu.attachL1iPrefetcher(prefetcher.get());
    if (data_prefetcher != nullptr)
        cpu.l1d().attachPrefetcher(data_prefetcher.get());
    if (spec.tracer != nullptr)
        cpu.attachTracer(spec.tracer);
    // Unlike the tracer, the miss-attribution observer is built here
    // (value-field spec), so --why composes with batches: every job
    // gets its own ledger.
    std::unique_ptr<obs::MissAttribution> why;
    if (spec.why) {
        why = std::make_unique<obs::MissAttribution>(spec.whyTop);
        cpu.attachWhy(why.get());
    }

    // One seam for every backend: synthetic Executor, .trc replay, or
    // ChampSim decode, chosen by the workload's kind.
    std::unique_ptr<trace::InstructionSource> stream =
        trace::makeTraceSource(workload, program)->open();

    // Observability: the registry and sampler live on this stack frame,
    // watching the Cpu's live counters for exactly the run's duration.
    bool collect = spec.collectCounters || spec.sampleInterval > 0;
    obs::CounterRegistry registry;
    std::unique_ptr<obs::IntervalSampler> sampler;
    if (collect) {
        cpu.registerCounters(registry);
        if (spec.sampleInterval > 0) {
            sampler = std::make_unique<obs::IntervalSampler>(
                registry, spec.sampleInterval);
        }
    }

    RunResult result;
    result.workload = workload.name;
    result.category = workload.category;
    sample::SampleSpec sample_spec;
    EIP_ASSERT(sample::parseMode(spec.sampleMode, &sample_spec.mode),
               "unknown sample mode (expected full|periodic)");
    if (sample_spec.mode == sample::Mode::Periodic) {
        // Sampled run: the controller alternates functional warming and
        // detailed windows. The interval sampler stays out — its
        // instruction/cycle axes assume one contiguous measured region.
        sample_spec.window = spec.sampleWindow;
        sample_spec.period = spec.samplePeriod;
        sample_spec.seed = spec.sampleSeed;
        sample_spec.warm = spec.sampleWarm;
        sample::SampledResult sampled =
            sample::runSampled(cpu, *stream, spec.instructions,
                               spec.warmup, sample_spec, spec.profiler);
        result.stats = sampled.stats;
        result.hasSampling = true;
        result.sampling = sampled.summary;
    } else {
        result.stats = cpu.run(*stream, spec.instructions, spec.warmup,
                               sampler.get(), spec.profiler);
    }
    if (collect)
        result.counters = registry.dump();
    if (sampler != nullptr)
        result.samples = sampler->series();
    if (why != nullptr)
        result.why = why->dump();

    if (prefetcher != nullptr) {
        result.configName = prefetcher->name();
        result.storageKB =
            static_cast<double>(prefetcher->storageBits()) / 8.0 / 1024.0;
    } else {
        result.configName = spec.configId == "none" ? "no" : spec.configId;
    }

    if (auto *ent =
            dynamic_cast<core::EntanglingPrefetcher *>(prefetcher.get())) {
        const core::EntanglingStats &a = ent->analysis();
        result.hasEntanglingAnalysis = true;
        result.avgDestsPerHit = a.destsPerHit.average();
        result.avgCurrentBbSize = a.currentBbSize.average();
        result.avgDstBbSize = a.dstBbSize.average();
        result.destBitsFractions.resize(a.destBits.buckets());
        for (size_t b = 0; b < a.destBits.buckets(); ++b)
            result.destBitsFractions[b] = a.destBits.fraction(b);
    }
    return result;
}

} // namespace

std::vector<RunResult>
runBatch(const std::vector<RunJob> &batch, unsigned jobs)
{
    // All run state (Cpu, Executor/replayer, RNG) is constructed inside
    // runOne and the shared program is immutable, so each job is a pure
    // function of its (workload, spec) pair and the batch result is
    // independent of scheduling.
    return exec::runBatch(batch, exec::resolveJobs(jobs),
                          [](const RunJob &job) {
                              return runOne(job.workload, job.spec);
                          });
}

std::vector<RunResult>
runSuite(const std::vector<trace::Workload> &suite, const RunSpec &spec,
         unsigned jobs)
{
    std::vector<RunJob> batch;
    batch.reserve(suite.size());
    for (const auto &w : suite)
        batch.push_back(RunJob{w, spec});
    return runBatch(batch, jobs);
}

double
geomeanSpeedup(const std::vector<RunResult> &results,
               const std::vector<RunResult> &baseline)
{
    EIP_ASSERT(results.size() == baseline.size(),
               "speedup needs matching result sets");
    std::vector<double> ratios;
    ratios.reserve(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EIP_ASSERT(results[i].workload == baseline[i].workload,
                   "speedup result sets must cover the same workloads");
        double base_ipc = baseline[i].stats.ipc();
        if (base_ipc > 0.0)
            ratios.push_back(results[i].stats.ipc() / base_ipc);
    }
    return geomean(ratios);
}

} // namespace eip::harness
