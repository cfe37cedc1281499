/**
 * @file
 * eipdiff — the artifact differential gate (see src/check/diff.hh).
 *
 * Runs a small configuration matrix in-process and diffs the resulting
 * eip-run/v1 / eip-suite/v1 artifacts field-by-field:
 *
 *   1. per EIP_SIM_SCALE point: the one-workload-per-category suite on
 *      1 worker vs N workers — the roll-up and every per-job artifact
 *      must match with an *empty* allow-list (the determinism contract
 *      of src/exec extended to the artifact bytes);
 *   2. interval sampling off vs on — only the sampling knob's own
 *      fields (manifest.sample_interval, samples) and environment
 *      timing may differ: the sampler is a pure observer;
 *   3. event tracing off vs on — nothing but environment timing may
 *      differ: the tracer is a pure observer;
 *   4. phase profiling off vs on — the host-side phase profiler
 *      (src/obs/phase.hh) is a pure observer: only its own manifest
 *      field (phase_ms) and environment timing may differ;
 *   5. miss attribution off vs on — the blame ledger (--why,
 *      DESIGN.md §3.11) is a pure observer: only its own artifact
 *      sections (the "why" object and the counters.why.* keys, which
 *      are appended after every historic counter) and environment
 *      timing may differ;
 *   6. miss attribution determinism: the why-enabled suite on 1 worker
 *      vs N workers — the ledger (and everything else) must match with
 *      an *empty* allow-list.
 *   7. capture vs replay — recording a workload's instruction stream to
 *      a .trc file and replaying it through the trace backend must
 *      reproduce the direct run's artifact with an *empty* allow-list
 *      (both rendered under the origin workload's manifest, so every
 *      result byte is compared; the capture's own provenance fields are
 *      pinned equal by construction).
 *   8. sampled vs full — a numeric accuracy gate rather than a field
 *      diff: per fig06 workload, a SMARTS-style sampled run (functional
 *      warming + periodic detailed windows, DESIGN.md §3.13) must
 *      bracket the full detailed run — the full IPC inside the sampled
 *      run's reported 95% CI AND relative IPC error ≤ 2%. Runs at a
 *      fixed budget rather than EIP_SIM_SCALE (warm-up has to cover the
 *      longest cold-cache transient in the suite, a property of the
 *      workload footprint, not of the budget).
 *
 * Event-driven cycle skipping (DESIGN.md §3.8) is the only detailed
 * schedule, so every leg runs it; its equivalence with per-cycle
 * ticking is gated in tests/test_skip.cc.
 *
 * Exit code 0 when every comparison is clean, 1 on any unexplained
 * divergence, 2 on usage errors. CI runs this instead of hand-rolled
 * byte-identity checks so a knob that silently stops being inert fails
 * the build with the exact JSON path that leaked.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "check/diff.hh"
#include "harness/artifacts.hh"
#include "harness/runner.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "trace/executor.hh"
#include "trace/trace_file.hh"
#include "trace/workloads.hh"
#include "util/panic.hh"

namespace {

using namespace eip;

const char *kUsage =
    "usage: eipdiff [options]\n"
    "\n"
    "Run the determinism/inertness configuration matrix and diff the\n"
    "artifacts field-by-field. Exits non-zero on unexplained divergence.\n"
    "\n"
    "  --jobs N       worker count of the parallel suite leg (default 4)\n"
    "  --scales A,B   EIP_SIM_SCALE points for the suite legs\n"
    "                 (default \"0.05,0.1\")\n"
    "  --out DIR      where artifact files are written\n"
    "                 (default \"eipdiff-artifacts\")\n"
    "  --full         whole workload catalogue instead of one workload\n"
    "                 per category\n"
    "  --prefetcher P config id for every run (default entangling-4k)\n"
    "  --help         this text\n";

struct Options
{
    unsigned jobs = 4;
    std::vector<std::string> scales{"0.05", "0.1"};
    std::string outDir = "eipdiff-artifacts";
    bool full = false;
    std::string prefetcher = "entangling-4k";
    bool help = false;
    std::string error;
};

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(text.substr(start));
            break;
        }
        out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                opt.error = std::string(flag) + " needs a value";
                return "";
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(value("--jobs").c_str(), nullptr, 10));
            if (opt.jobs < 2 && opt.error.empty())
                opt.error = "--jobs: the parallel leg needs at least 2 "
                            "workers to contrast with the serial leg";
        } else if (arg == "--scales") {
            opt.scales = splitCommas(value("--scales"));
            for (const std::string &s : opt.scales) {
                char *end = nullptr;
                double parsed = std::strtod(s.c_str(), &end);
                if (s.empty() || end == nullptr || *end != '\0' ||
                    parsed <= 0.0) {
                    opt.error = "--scales: '" + s +
                                "' is not a positive scale factor";
                    break;
                }
            }
        } else if (arg == "--out") {
            opt.outDir = value("--out");
        } else if (arg == "--full") {
            opt.full = true;
        } else if (arg == "--prefetcher") {
            opt.prefetcher = value("--prefetcher");
            if (opt.error.empty() && !harness::knownConfigId(opt.prefetcher))
                opt.error = "--prefetcher: unknown config id '" +
                            opt.prefetcher + "'";
        } else if (arg == "--help" || arg == "-h") {
            opt.help = true;
        } else {
            opt.error = "unknown option: " + arg;
        }
        if (!opt.error.empty())
            break;
    }
    return opt;
}

/** One workload per category — enough to exercise every program
 *  generator while keeping the CI gate fast. */
std::vector<trace::Workload>
onePerCategory()
{
    std::vector<trace::Workload> picked;
    for (const auto &w : harness::defaultCatalogue()) {
        bool seen = false;
        for (const auto &p : picked)
            seen = seen || p.category == w.category;
        if (!seen)
            picked.push_back(w);
    }
    return picked;
}

void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        EIP_FATAL(("eipdiff: cannot create output directory '" + dir +
                   "'").c_str());
}

/** Suite leg: the same batch on 1 worker and on N workers; the roll-up
 *  and every per-job artifact must be field-identical (no allow-list —
 *  per-job documents are written without timing fields exactly so this
 *  holds). */
void
diffSuiteLegs(check::DiffRunner &diff, const Options &opt,
              const std::vector<trace::Workload> &suite,
              const std::string &scale)
{
    ::setenv("EIP_SIM_SCALE", scale.c_str(), 1);
    harness::RunSpec spec = harness::RunSpec::defaultSpec();
    spec.configId = opt.prefetcher;

    std::vector<harness::RunJob> batch;
    for (const auto &w : suite)
        batch.push_back(harness::RunJob{w, spec});

    std::string serial = opt.outDir + "/suite-scale" + scale + "-j1.json";
    std::string parallel = opt.outDir + "/suite-scale" + scale + "-j" +
                           std::to_string(opt.jobs) + ".json";
    harness::runBatchWithArtifacts(batch, 1, serial);
    harness::runBatchWithArtifacts(batch, opt.jobs, parallel);

    const std::vector<std::string> kNothingAllowed;
    diff.compareFiles("suite scale=" + scale + " jobs=1 vs jobs=" +
                          std::to_string(opt.jobs),
                      serial, parallel, kNothingAllowed);
    for (size_t i = 0; i < batch.size(); ++i) {
        diff.compareFiles("per-job scale=" + scale + " " +
                              batch[i].workload.name,
                          harness::perJobArtifactPath(serial, i),
                          harness::perJobArtifactPath(parallel, i),
                          kNothingAllowed);
    }
}

/** Single-run artifact under @p spec as the eip-run/v1 text. */
std::string
singleRunArtifact(const trace::Workload &workload,
                  const harness::RunSpec &spec)
{
    harness::RunResult result = harness::runOne(workload, spec);
    obs::RunManifest manifest =
        harness::makeManifest(workload, spec, result);
    return harness::runArtifactJson(manifest, result,
                                    /*include_timing=*/true);
}

/** Sampling leg: interval sampling must not perturb the run — only the
 *  knob's own fields and environment timing may differ. */
void
diffSamplingLeg(check::DiffRunner &diff, const Options &opt,
                const trace::Workload &workload)
{
    harness::RunSpec base = harness::RunSpec::defaultSpec();
    base.configId = opt.prefetcher;
    base.collectCounters = true;

    harness::RunSpec sampled = base;
    sampled.sampleInterval = std::max<uint64_t>(base.instructions / 4, 1);

    diff.compare("sampling off vs on (" + workload.name + ")",
                 singleRunArtifact(workload, base),
                 singleRunArtifact(workload, sampled),
                 {"manifest.sample_interval", "manifest.wall_clock_seconds",
                  "manifest.host_wall_ms", "manifest.host_mips",
                  "manifest.jobs", "samples"});
}

/** Tracing leg: the event tracer is a pure observer — nothing but
 *  environment timing may differ. */
void
diffTracingLeg(check::DiffRunner &diff, const Options &opt,
               const trace::Workload &workload)
{
    harness::RunSpec base = harness::RunSpec::defaultSpec();
    base.configId = opt.prefetcher;
    base.collectCounters = true;

    obs::EventTracer tracer{obs::TraceConfig{}};
    harness::RunSpec traced = base;
    traced.tracer = &tracer;

    diff.compare("tracing off vs on (" + workload.name + ")",
                 singleRunArtifact(workload, base),
                 singleRunArtifact(workload, traced),
                 {"manifest.wall_clock_seconds", "manifest.host_wall_ms",
                  "manifest.host_mips", "manifest.jobs"});
}

/** Profiling leg: the host-side phase profiler must not perturb the
 *  run — only its own manifest field and environment timing may
 *  differ. */
void
diffProfilingLeg(check::DiffRunner &diff, const Options &opt,
                 const trace::Workload &workload)
{
    harness::RunSpec base = harness::RunSpec::defaultSpec();
    base.configId = opt.prefetcher;
    base.collectCounters = true;

    obs::PhaseProfiler profiler;
    harness::RunSpec profiled = base;
    profiled.profiler = &profiler;

    harness::RunResult result = harness::runOne(workload, profiled);
    profiler.close();
    obs::RunManifest manifest =
        harness::makeManifest(workload, profiled, result);
    manifest.phaseMs = profiler.totalsMs();
    std::string profiled_artifact =
        harness::runArtifactJson(manifest, result, /*include_timing=*/true);

    diff.compare("profiling off vs on (" + workload.name + ")",
                 singleRunArtifact(workload, base), profiled_artifact,
                 {"manifest.wall_clock_seconds", "manifest.host_wall_ms",
                  "manifest.host_mips", "manifest.jobs",
                  "manifest.phase_ms"});
}

/** Why inertness leg: the miss-attribution observer must not perturb
 *  the run — only its own artifact surface (the "why" section and the
 *  counters.why.* keys) and environment timing may differ. */
void
diffWhyInertLeg(check::DiffRunner &diff, const Options &opt,
                const trace::Workload &workload)
{
    harness::RunSpec base = harness::RunSpec::defaultSpec();
    base.configId = opt.prefetcher;
    base.collectCounters = true;

    harness::RunSpec whyd = base;
    whyd.why = true;

    diff.compare("why off vs on (" + workload.name + ")",
                 singleRunArtifact(workload, base),
                 singleRunArtifact(workload, whyd),
                 {"manifest.wall_clock_seconds", "manifest.host_wall_ms",
                  "manifest.host_mips", "manifest.jobs", "why",
                  "counters.why.never_predicted",
                  "counters.why.not_yet_learned",
                  "counters.why.dropped_queue_full",
                  "counters.why.dropped_cross_page",
                  "counters.why.late_partial",
                  "counters.why.evicted_before_use",
                  "counters.why.pair_evicted",
                  "counters.why.wrong_path_pollution"});
}

/** Capture→replay leg: recording a workload's stream with captureTrace
 *  and replaying the .trc through the trace-backed runOne path must
 *  reproduce the direct run bit-for-bit. Both artifacts are rendered
 *  under the origin workload's manifest — the capture's provenance
 *  fields (trace_kind/bytes/digest) are facts we stamped ourselves, so
 *  pinning them equal by construction lets every *result* byte
 *  (counters, samples, stats-derived manifest fields) face a truly
 *  empty allow-list. */
void
diffCaptureReplayLeg(check::DiffRunner &diff, const Options &opt,
                     const trace::Workload &workload)
{
    harness::RunSpec spec = harness::RunSpec::defaultSpec();
    spec.configId = opt.prefetcher;
    spec.collectCounters = true;

    const std::string path =
        opt.outDir + "/capture-" + workload.name + ".trc";
    {
        trace::Program prog = trace::buildProgram(workload.program);
        trace::Executor exec(prog, workload.exec);
        // The front end runs ahead of retirement (FTQ + ROB); capture
        // enough slack that the replay never wraps inside the window.
        trace::captureTrace(path, exec,
                            spec.warmup + spec.instructions + 65536);
    }
    const trace::Workload replayed =
        trace::capturedWorkload(workload, path);

    harness::RunResult direct = harness::runOne(workload, spec);
    harness::RunResult replay = harness::runOne(replayed, spec);

    obs::RunManifest direct_m =
        harness::makeManifest(workload, spec, direct);
    obs::RunManifest replay_m =
        harness::makeManifest(workload, spec, replay);
    const std::vector<std::string> kNothingAllowed;
    diff.compare(
        "capture vs replay (" + workload.name + ")",
        harness::runArtifactJson(direct_m, direct,
                                 /*include_timing=*/false),
        harness::runArtifactJson(replay_m, replay,
                                 /*include_timing=*/false),
        kNothingAllowed);
}

/** Sampled-vs-full accuracy leg: per workload, run the same budget once
 *  fully detailed and once under the SMARTS-style periodic schedule,
 *  then assert the sampled estimate brackets the truth — the full run's
 *  IPC must fall inside the sampled run's reported 95% CI, and the
 *  relative IPC error must stay within 2%.
 *
 *  The budget is fixed, not EIP_SIM_SCALE-scaled: warm-up must cover the
 *  longest cold-cache transient in the suite (fp's LLC-sized compulsory
 *  fill runs ~6.5M instructions; measuring any part of it with warmed
 *  gaps biases IPC high by ~8% because warm-mode fills do not reproduce
 *  detailed-mode MSHR back-pressure), and that length is a property of
 *  the workload footprint, not of the budget. */
void
diffSampledLeg(check::DiffRunner &diff, const Options &opt,
               const std::vector<trace::Workload> &suite)
{
    // 10 windows of 125k insts once every 350k across a 3.5M-instruction
    // measured region, warm-up past the fp transient. Everything is
    // deterministic (seeded offset, deterministic simulator), so the
    // observed margins hold run over run.
    harness::RunSpec full = harness::RunSpec::defaultSpec();
    full.configId = opt.prefetcher;
    full.warmup = 6500000;
    full.instructions = 3500000;

    harness::RunSpec sampled = full;
    sampled.sampleMode = "periodic";
    sampled.sampleWindow = 125000;
    sampled.samplePeriod = 350000;

    for (const auto &w : suite) {
        harness::RunResult fr = harness::runOne(w, full);
        harness::RunResult sr = harness::runOne(w, sampled);
        EIP_ASSERT(sr.hasSampling && fr.stats.cycles > 0,
                   "sampled leg produced no sampling summary");

        const double full_ipc = static_cast<double>(fr.stats.instructions) /
                                static_cast<double>(fr.stats.cycles);
        const sample::MetricSummary &est = sr.sampling.ipc;
        const double err = std::fabs(est.estimate - full_ipc) / full_ipc;
        const bool in_ci = std::fabs(full_ipc - est.estimate) <= est.ci95;

        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "full %.4f vs sampled %.4f +/- %.4f, rel err %.2f%%",
                      full_ipc, est.estimate, est.ci95, err * 100.0);
        diff.check("sampled vs full (" + w.name + ")",
                   in_ci && err <= 0.02, detail);
    }
}

/** Why determinism leg: the why-enabled suite must produce
 *  field-identical artifacts — ledger included — across worker counts.
 *  Empty allow-list, roll-up and per-job alike. */
void
diffWhyLegs(check::DiffRunner &diff, const Options &opt,
            const std::vector<trace::Workload> &suite,
            const std::string &scale)
{
    ::setenv("EIP_SIM_SCALE", scale.c_str(), 1);
    harness::RunSpec spec = harness::RunSpec::defaultSpec();
    spec.configId = opt.prefetcher;
    spec.why = true;

    std::vector<harness::RunJob> batch;
    for (const auto &w : suite)
        batch.push_back(harness::RunJob{w, spec});

    std::string serial = opt.outDir + "/why-scale" + scale + "-j1.json";
    std::string parallel = opt.outDir + "/why-scale" + scale + "-j" +
                           std::to_string(opt.jobs) + ".json";
    harness::runBatchWithArtifacts(batch, 1, serial);
    harness::runBatchWithArtifacts(batch, opt.jobs, parallel);

    const std::vector<std::string> kNothingAllowed;
    diff.compareFiles("why suite scale=" + scale + " jobs=1 vs jobs=" +
                          std::to_string(opt.jobs),
                      serial, parallel, kNothingAllowed);
    for (size_t i = 0; i < batch.size(); ++i) {
        diff.compareFiles("why per-job scale=" + scale + " " +
                              batch[i].workload.name,
                          harness::perJobArtifactPath(serial, i),
                          harness::perJobArtifactPath(parallel, i),
                          kNothingAllowed);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.help) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    if (!opt.error.empty()) {
        std::fprintf(stderr, "error: %s\n%s", opt.error.c_str(), kUsage);
        return 2;
    }

    ensureDir(opt.outDir);
    std::vector<trace::Workload> suite =
        opt.full ? harness::defaultCatalogue() : onePerCategory();

    check::DiffRunner diff;
    for (const std::string &scale : opt.scales)
        diffSuiteLegs(diff, opt, suite, scale);

    // Single-run legs at the first scale point; pick a server workload
    // (the paper's focus) when the suite has one.
    ::setenv("EIP_SIM_SCALE", opt.scales.front().c_str(), 1);
    trace::Workload probe = suite.front();
    for (const auto &w : suite)
        if (w.category == "srv")
            probe = w;
    diffSamplingLeg(diff, opt, probe);
    diffTracingLeg(diff, opt, probe);
    diffProfilingLeg(diff, opt, probe);
    diffWhyInertLeg(diff, opt, probe);
    diffCaptureReplayLeg(diff, opt, probe);

    // Why determinism at the first scale point only: the leg runs the
    // suite twice more, so one point bounds the gate's runtime.
    diffWhyLegs(diff, opt, suite, opt.scales.front());

    // Sampled accuracy across the whole (one-per-category) suite at its
    // own fixed budget — see the leg's comment for why it ignores
    // EIP_SIM_SCALE.
    diffSampledLeg(diff, opt, suite);

    std::fputs(diff.report().c_str(), stdout);
    return diff.allClean() ? 0 : 1;
}
