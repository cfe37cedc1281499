/**
 * @file
 * Experiment runner: builds a workload, attaches a prefetcher (or a cache
 * configuration such as Ideal / larger L1I), simulates, and returns the
 * statistics. All benches and the examples go through this entry point.
 *
 * Batch entry points (runSuite, runBatch) execute through the src/exec
 * engine: jobs are taken in index order by EIP_JOBS / --jobs threads
 * (default hardware_concurrency, 1 = the calling thread alone) and
 * synthetic programs are shared through exec::ProgramCache. Every job
 * constructs its own Cpu/Executor/RNG, so results are bit-identical for
 * any job count.
 */

#ifndef EIP_HARNESS_RUNNER_HH
#define EIP_HARNESS_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/why.hh"
#include "sample/estimator.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "trace/workloads.hh"

namespace eip::core {
struct EntanglingStats;
}

namespace eip::obs {
class EventTracer;
class PhaseProfiler;
}

namespace eip::trace {
struct Program;
}

namespace eip::harness {

/** One simulation request. */
struct RunSpec
{
    /** An L1I prefetcher id of the factory table
     *  (prefetch::prefetcherIds) or a cache configuration ("ideal",
     *  "l1i-64kb", "l1i-96kb"); knownConfigId validates one. */
    std::string configId = "none";
    uint64_t instructions = 600000;
    uint64_t warmup = 300000;
    bool physicalL1i = false;
    /** Optional L1D prefetcher id (prefetch::prefetcherIds(Side::L1d):
     *  "none" or "stride"). */
    std::string dataPrefetcher = "none";
    /** Model wrong-path fetch after mispredictions
     *  (SimConfig::modelWrongPath). Result-affecting, so part of the
     *  canonical spec. */
    bool wrongPath = false;

    /** Sampled simulation (SMARTS-style, DESIGN.md §3.13): "full"
     *  (default, conventional single-interval simulation) or
     *  "periodic". Periodic mode alternates functional warming with
     *  detailed windows of sampleWindow instructions once every
     *  samplePeriod instructions, at a sampleSeed-derived systematic
     *  offset; the warm-up phase is functional too. sampleWarm bounds
     *  functional warming to the N instructions just before each window
     *  (the rest of each gap is fast-forwarded at source level with no
     *  state updates); 0 warms every gap end to end, the classic SMARTS
     *  discipline. Result-affecting, so all five fields are part of the
     *  canonical spec. */
    std::string sampleMode = "full";
    uint64_t sampleWindow = 0;
    uint64_t samplePeriod = 0;
    uint64_t sampleSeed = 0;
    uint64_t sampleWarm = 0;

    /** Snapshot all registered counters every N measured instructions
     *  (0 = no interval time-series). Implies collectCounters. */
    uint64_t sampleInterval = 0;
    /** Dump the full counter registry (including prefetcher-internal
     *  counters) into RunResult::counters at end of run. */
    bool collectCounters = false;

    /** Miss attribution (--why, DESIGN.md §3.11): classify every L1I
     *  demand miss of the measured window into the blame taxonomy.
     *  Unlike the tracer this is a value field, not a caller-owned
     *  pointer — the observer is built inside runOne — so it works for
     *  batches and is dumped into RunResult::why. Pure observer:
     *  sim results and artifact bytes are unchanged (the why.* counters
     *  and the manifest "why" section only appear when enabled), and it
     *  stays outside canonicalRunSpec like the tracer/profiler. */
    bool why = false;
    /** Hot-miss PC table depth of the why dump (--why-top). */
    uint64_t whyTop = 10;

    /** Optional event tracer attached to the Cpu for the run (see
     *  src/obs/trace.hh). Caller-owned, pure observer: results are
     *  identical with and without it. Not copied into batch artifacts —
     *  tracing is a single-run facility. */
    obs::EventTracer *tracer = nullptr;

    /** Optional host-side phase profiler (src/obs/phase.hh): records
     *  where the run's wall time goes (prefetcher construction,
     *  warm-up, measure, fill-drain). Caller-owned, pure observer,
     *  touched only at phase boundaries — never per cycle — and like
     *  the tracer it is not part of the run's canonical identity
     *  (harness::canonicalRunSpec ignores it, so cache keys and
     *  artifact bytes are unchanged by profiling). */
    obs::PhaseProfiler *profiler = nullptr;

    /** Global scaling knob honoured by all benches: the environment
     *  variable EIP_SIM_SCALE (e.g. "0.2" or "3") multiplies instruction
     *  budgets. Applied by defaultSpec(). Malformed or non-positive
     *  values are fatal errors (a silently ignored knob would corrupt a
     *  whole evaluation). */
    static RunSpec defaultSpec();
};

/** Result of one run. */
struct RunResult
{
    std::string workload;
    std::string category;
    std::string configName;  ///< pretty prefetcher/config name
    double storageKB = 0.0;  ///< prefetcher storage (0 for cache configs)
    sim::SimStats stats;

    /** End-of-run registry snapshot (when RunSpec::collectCounters). */
    obs::CounterDump counters;
    /** Interval time-series (when RunSpec::sampleInterval > 0). */
    obs::SampleSeries samples;
    /** Miss-attribution ledger (when RunSpec::why). */
    obs::WhyDump why;

    /** Sampling confidence summary (periodic RunSpec::sampleMode only):
     *  per-metric estimate / standard error / 95% CI over the detailed
     *  windows, exported as the artifact's "sampling" section. */
    bool hasSampling = false;
    sample::Summary sampling;

    // Entangling-internal analysis (only for entangling configs).
    bool hasEntanglingAnalysis = false;
    double avgDestsPerHit = 0.0;
    double avgCurrentBbSize = 0.0;
    double avgDstBbSize = 0.0;
    /** Fraction of inserted destinations per encoding width bucket
     *  (index = bits needed; see CompressionScheme). */
    std::vector<double> destBitsFractions;
};

/** Does runOne accept @p id as RunSpec::configId: an L1I prefetcher id
 *  or one of the cache configurations, which run without an L1I
 *  prefetcher: "ideal" (every L1I access hits), "l1i-64kb" and
 *  "l1i-96kb" (enlarged L1Is)? The one validator eipsim and eipd share;
 *  runner.cc is the one place the cache configurations are named. */
bool knownConfigId(const std::string &id);

/** Every id knownConfigId accepts: the prefetcher ids, then the cache
 *  configurations (eipsim --list-prefetchers). */
std::vector<std::string> configIds();

/** The full workload catalogue every surface serves from, in this
 *  order: the pinned CVP-like suite (trace::cvpSuite, 3 seeds per
 *  category), the CloudSuite-like applications and the tiny smoke
 *  workload. Made from constant tables: it builds and probes no program.
 *  The eipsim CLI and the eipd job server resolve workload names against
 *  these entries (findWorkload). */
std::vector<trace::Workload> defaultCatalogue();

/** Catalogue workload by name, built alone (trace::syntheticWorkload)
 *  rather than by building the catalogue. A bare category name
 *  ("crypto") falls back to its first seed ("crypto-1") so
 *  category-level callers don't need to know the seed-suffix
 *  convention. A recognized trace path
 *  (trace::isTracePath — .trc / .champsimtrace[.xz|.gz]) resolves to a
 *  trace-backed workload instead, digesting the file for identity.
 *  Returns false when the name resolves to nothing (including an
 *  unreadable trace file). */
bool findWorkload(const std::string &name, trace::Workload &out);

/**
 * The default catalogue extended with trace-backed workloads, one per
 * entry of @p trace_paths, so batch suites can mix corpus traces with
 * the synthetic categories. Each trace is admitted through the same
 * selection probe that picked the synthetic seeds
 * (trace::workloadQualifies, the >= 1 L1I MPKI footprint proxy);
 * unreadable paths and traces below the threshold are skipped — never
 * fatal, so one bad corpus file cannot sink a suite run — with a
 * human-readable line per skip (and per admission) appended to @p notes
 * when non-null. Duplicate paths are admitted once.
 */
std::vector<trace::Workload>
mixedCatalogue(const std::vector<std::string> &trace_paths,
               std::vector<std::string> *notes = nullptr);

/** Run @p workload under @p spec. Synthetic programs come from the
 *  shared exec::ProgramCache, so repeated runs of one workload (across
 *  configs, or concurrently) build it once; trace-backed workloads
 *  stream from their file and build no program at all. */
RunResult runOne(const trace::Workload &workload, const RunSpec &spec);

/** As above with an already-built @p program (must match
 *  workload.program; synthetic workloads only). The program is only
 *  read, never mutated, so one instance may serve many concurrent
 *  runs. */
RunResult runOne(const trace::Workload &workload, const RunSpec &spec,
                 const trace::Program &program);

/** One cell of an experiment matrix: a workload under a spec. */
struct RunJob
{
    trace::Workload workload;
    RunSpec spec;
};

/**
 * Run an arbitrary workload×config batch on @p jobs worker threads
 * (0 = EIP_JOBS / hardware default, 1 = serial). Results come back in
 * submission order, bit-identical to the serial loop for any job count.
 */
std::vector<RunResult> runBatch(const std::vector<RunJob> &batch,
                                unsigned jobs = 0);

/** Run a whole suite under one config; one result per workload, through
 *  runBatch on @p jobs threads (0 = EIP_JOBS / hardware default). */
std::vector<RunResult> runSuite(const std::vector<trace::Workload> &suite,
                                const RunSpec &spec, unsigned jobs = 0);

/** Geometric mean of IPC normalized against a baseline result set (the
 *  baseline must cover the same workloads in the same order). */
double geomeanSpeedup(const std::vector<RunResult> &results,
                      const std::vector<RunResult> &baseline);

} // namespace eip::harness

#endif // EIP_HARNESS_RUNNER_HH
