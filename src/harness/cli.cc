#include "harness/cli.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>

#include "check/invariants.hh"
#include "exec/jobs.hh"
#include "harness/artifacts.hh"
#include "obs/log.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "prefetch/factory.hh"
#include "sample/schedule.hh"
#include "sim/config.hh"
#include "trace/workloads.hh"

namespace eip::harness {

namespace {

bool
parseU64(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

} // namespace

std::string
cliUsage()
{
    return
        "eipsim — Entangling instruction-prefetcher simulator\n"
        "\n"
        "usage: eipsim [options]\n"
        "  --workload NAME       catalogue workload (default srv-1), 'all'\n"
        "                        to run the whole catalogue, or a trace\n"
        "                        file path (.trc, .champsimtrace[.xz|.gz])\n"
        "  --suite-trace FILE    with --workload all: append this corpus\n"
        "                        trace to the batch catalogue (repeatable;\n"
        "                        same formats as --workload). Each trace\n"
        "                        passes the suite's >= 1 L1I MPKI\n"
        "                        qualification or is skipped with a note\n"
        "  --prefetcher ID       none|ideal|l1i-64kb|l1i-96kb|nextline|\n"
        "                        sn4l|mana-{2k,4k,8k}|rdip|djolt|fnl+mma|\n"
        "                        pif|epi|entangling-{2k,4k,8k}[-phys]|\n"
        "                        bb-4k|bbent-4k|bbentbb-4k|ent-4k\n"
        "  --data-prefetcher ID  L1D prefetcher: none|stride\n"
        "  --instructions N      measured instructions (default 600000)\n"
        "  --warmup N            warm-up instructions (default 300000)\n"
        "  --jobs N              worker threads for --workload all\n"
        "                        (default: EIP_JOBS env or all cores;\n"
        "                        1 = serial)\n"
        "  --physical            train the L1I with physical addresses\n"
        "  --wrong-path          model wrong-path execution\n"
        "  --check               run the cycle-level invariant auditor\n"
        "                        (src/check; also EIP_CHECK=1); fatal on\n"
        "                        the first violated invariant\n"
        "  --json                machine-readable output\n"
        "  --stats-json FILE     write a self-describing JSON artifact:\n"
        "                        eip-run/v1 per run, eip-suite/v1 roll-up\n"
        "                        (plus FILE.rNNN.json per job) for\n"
        "                        --workload all\n"
        "  --sample-interval N   counter time-series interval in measured\n"
        "                        instructions (default 100000; 0 = off;\n"
        "                        needs --stats-json)\n"
        "  --sample-mode MODE    full (default): simulate every measured\n"
        "                        instruction in detail; periodic:\n"
        "                        SMARTS-style sampling — functional\n"
        "                        warming between detailed windows, with\n"
        "                        per-metric 95% confidence intervals\n"
        "  --sample-window N     detailed instructions per window\n"
        "                        (periodic mode; required, positive)\n"
        "  --sample-period N     instructions per sampling period\n"
        "                        (periodic mode; required, >= window)\n"
        "  --sample-seed N       systematic sampling offset seed\n"
        "                        (periodic mode; default 0)\n"
        "  --sample-warm N       functionally warm only the last N\n"
        "                        instructions before each window,\n"
        "                        fast-forwarding the rest (periodic\n"
        "                        mode; default 0 = warm whole gaps)\n"
        "  --trace-out FILE      record an event trace (prefetch\n"
        "                        lifecycle, fetch stalls, L1I misses) as\n"
        "                        Chrome/Perfetto trace_event JSON\n"
        "                        (eip-trace/v1; single runs only)\n"
        "  --trace-events LIST   comma list of event families kept in\n"
        "                        the trace ring: pf,stall,cache\n"
        "                        (default all)\n"
        "  --trace-limit N       trace ring capacity in events (default\n"
        "                        1048576; oldest overwritten beyond it)\n"
        "  --why                 attribute every L1I demand miss of the\n"
        "                        measured window to a blame category\n"
        "                        (eip-why/v1 artifact section; inspect\n"
        "                        with `eiptrace eipwhy`)\n"
        "  --why-top N           hot-miss PC table depth of the why\n"
        "                        section (default 10; implies --why)\n"
        "  --log-level LEVEL     structured-log threshold on stderr:\n"
        "                        debug|info|warn|error|off (default: the\n"
        "                        EIP_LOG environment variable, else warn)\n"
        "  --list-workloads      print the workload catalogue\n"
        "  --list-prefetchers    print the known prefetcher ids\n"
        "  --config              print the simulated system (Table III)\n"
        "  --help                this text\n";
}

CliOptions
parseCli(const std::vector<std::string> &args)
{
    CliOptions opt;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) -> std::optional<std::string> {
            if (i + 1 >= args.size()) {
                opt.error = std::string(flag) + " needs a value";
                return std::nullopt;
            }
            return args[++i];
        };

        if (arg == "--help" || arg == "-h") {
            opt.action = CliOptions::Action::Help;
        } else if (arg == "--list-workloads") {
            opt.action = CliOptions::Action::ListWorkloads;
        } else if (arg == "--list-prefetchers") {
            opt.action = CliOptions::Action::ListPrefetchers;
        } else if (arg == "--config") {
            opt.action = CliOptions::Action::ShowConfig;
        } else if (arg == "--workload") {
            if (auto v = value("--workload"))
                opt.workload = *v;
        } else if (arg == "--suite-trace") {
            if (auto v = value("--suite-trace"))
                opt.suiteTraces.push_back(*v);
        } else if (arg == "--prefetcher") {
            if (auto v = value("--prefetcher"))
                opt.prefetcher = *v;
        } else if (arg == "--data-prefetcher") {
            if (auto v = value("--data-prefetcher"))
                opt.dataPrefetcher = *v;
        } else if (arg == "--instructions") {
            auto v = value("--instructions");
            if (v && !parseU64(*v, opt.instructions))
                opt.error = "--instructions needs a number";
        } else if (arg == "--warmup") {
            auto v = value("--warmup");
            if (v && !parseU64(*v, opt.warmup))
                opt.error = "--warmup needs a number";
        } else if (arg == "--jobs") {
            auto v = value("--jobs");
            uint64_t jobs = 0;
            if (v && (!parseU64(*v, jobs) || jobs > 4096))
                opt.error = "--jobs needs a number (0 = auto, max 4096)";
            else
                opt.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--stats-json") {
            if (auto v = value("--stats-json")) {
                opt.statsJsonPath = *v;
                if (opt.statsJsonPath.empty())
                    opt.error = "--stats-json needs a file path";
            }
        } else if (arg == "--sample-interval") {
            auto v = value("--sample-interval");
            if (v && !parseU64(*v, opt.sampleInterval))
                opt.error = "--sample-interval needs a number "
                            "(instructions; 0 = off)";
        } else if (arg == "--sample-mode") {
            if (auto v = value("--sample-mode")) {
                opt.sampleMode = *v;
                sample::Mode mode;
                if (!sample::parseMode(*v, &mode))
                    opt.error = "--sample-mode needs full or periodic";
            }
        } else if (arg == "--sample-window") {
            auto v = value("--sample-window");
            if (v && !parseU64(*v, opt.sampleWindow))
                opt.error = "--sample-window needs a number "
                            "(instructions per detailed window)";
        } else if (arg == "--sample-period") {
            auto v = value("--sample-period");
            if (v && !parseU64(*v, opt.samplePeriod))
                opt.error = "--sample-period needs a number "
                            "(instructions per sampling period)";
        } else if (arg == "--sample-seed") {
            auto v = value("--sample-seed");
            if (v && !parseU64(*v, opt.sampleSeed))
                opt.error = "--sample-seed needs a number";
        } else if (arg == "--sample-warm") {
            auto v = value("--sample-warm");
            if (v && !parseU64(*v, opt.sampleWarm))
                opt.error = "--sample-warm needs a number (instructions "
                            "warmed before each window; 0 = whole gap)";
        } else if (arg == "--trace-out") {
            if (auto v = value("--trace-out")) {
                opt.traceOutPath = *v;
                if (opt.traceOutPath.empty())
                    opt.error = "--trace-out needs a file path";
            }
        } else if (arg == "--trace-events") {
            if (auto v = value("--trace-events")) {
                opt.traceEvents = *v;
                if (!obs::parseTraceFamilies(*v)) {
                    opt.error = "--trace-events needs a comma-separated "
                                "subset of pf,stall,cache";
                }
            }
        } else if (arg == "--trace-limit") {
            auto v = value("--trace-limit");
            uint64_t limit = 0;
            if (v && (!parseU64(*v, limit) || limit == 0))
                opt.error = "--trace-limit needs a positive event count";
            else if (v)
                opt.traceLimit = limit;
        } else if (arg == "--log-level") {
            if (auto v = value("--log-level")) {
                opt.logLevel = *v;
                if (!obs::parseLogLevel(*v))
                    opt.error = "--log-level needs one of "
                                "debug|info|warn|error|off";
            }
        } else if (arg == "--why") {
            opt.why = true;
        } else if (arg == "--why-top") {
            auto v = value("--why-top");
            if (v && !parseU64(*v, opt.whyTop))
                opt.error = "--why-top needs a number (PC table depth)";
            else
                opt.why = true;
        } else if (arg == "--physical") {
            opt.physical = true;
        } else if (arg == "--wrong-path") {
            opt.wrongPath = true;
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else {
            opt.error = "unknown option: " + arg;
        }
        if (!opt.error.empty())
            break;
    }
    if (opt.instructions == 0)
        opt.error = "--instructions must be positive";
    // Mirror sample::validateSpec at the CLI boundary so a bad schedule
    // is a usage error with help text, not a runtime panic.
    if (opt.error.empty() && opt.sampleMode == "periodic") {
        if (opt.sampleWindow == 0)
            opt.error = "--sample-mode periodic needs a positive "
                        "--sample-window";
        else if (opt.samplePeriod < opt.sampleWindow)
            opt.error = "--sample-period must be at least --sample-window";
    }
    return opt;
}

std::string
resultToJson(const RunResult &result)
{
    const sim::SimStats &s = result.stats;
    std::ostringstream out;
    out << "{\"workload\":\"" << result.workload << "\","
        << "\"config\":\"" << result.configName << "\","
        << "\"storage_kb\":" << result.storageKB << ","
        << "\"instructions\":" << s.instructions << ","
        << "\"cycles\":" << s.cycles << ","
        << "\"ipc\":" << s.ipc() << ","
        << "\"l1i_mpki\":" << s.l1iMpki() << ","
        << "\"l1i_miss_ratio\":" << s.l1i.missRatio() << ","
        << "\"coverage\":" << s.l1i.coverage() << ","
        << "\"accuracy\":" << s.l1i.accuracy() << ","
        << "\"prefetches_issued\":" << s.l1i.prefetchIssued << ","
        << "\"useful\":" << s.l1i.usefulPrefetches << ","
        << "\"late\":" << s.l1i.latePrefetches << ","
        << "\"wrong\":" << s.l1i.wrongPrefetches << ","
        << "\"branch_mpki\":"
        << (s.instructions
                ? 1000.0 * s.branchMispredicts / s.instructions : 0.0)
        << "}";
    return out.str();
}

int
runCli(const CliOptions &opt)
{
    if (!opt.error.empty()) {
        std::fprintf(stderr, "error: %s\n%s", opt.error.c_str(),
                     cliUsage().c_str());
        return 2;
    }
    if (!opt.logLevel.empty()) {
        if (auto level = obs::parseLogLevel(opt.logLevel))
            obs::Logger::global().setLevel(*level);
    }
    // Must happen before any Cpu is constructed (including batch
    // workers): the auditor registry is created in the Cpu constructor.
    if (opt.check)
        check::setChecksEnabled(true);
    switch (opt.action) {
      case CliOptions::Action::Help:
        std::fputs(cliUsage().c_str(), stdout);
        return 0;
      case CliOptions::Action::ShowConfig:
        std::fputs(sim::SimConfig{}.describe().c_str(), stdout);
        return 0;
      case CliOptions::Action::ListPrefetchers: {
        std::printf("none ideal l1i-64kb l1i-96kb\n");
        for (const auto &id : prefetch::figure6Lineup())
            std::printf("%s\n", id.c_str());
        std::printf("pif\n");
        return 0;
      }
      case CliOptions::Action::ListWorkloads: {
        for (const auto &w : defaultCatalogue()) {
            trace::Program prog = trace::buildProgram(w.program);
            std::printf("%-12s %-7s %6.0f KB code\n", w.name.c_str(),
                        w.category.c_str(),
                        prog.footprintBytes() / 1024.0);
        }
        return 0;
      }
      case CliOptions::Action::Run:
        break;
    }

    if (!opt.suiteTraces.empty() && opt.workload != "all") {
        std::fprintf(stderr, "error: --suite-trace needs --workload all "
                             "(use --workload FILE for a single replay)\n");
        return 2;
    }
    if (opt.workload == "all") {
        // Batch mode: the whole catalogue under one config, fanned out
        // across the exec thread pool.
        if (opt.wrongPath) {
            std::fprintf(stderr, "error: --wrong-path is not supported "
                                 "with --workload all\n");
            return 2;
        }
        if (!opt.traceOutPath.empty()) {
            std::fprintf(stderr, "error: --trace-out is not supported "
                                 "with --workload all (tracing is a "
                                 "single-run facility)\n");
            return 2;
        }
        RunSpec spec;
        spec.configId = opt.prefetcher;
        spec.dataPrefetcher = opt.dataPrefetcher;
        spec.instructions = opt.instructions;
        spec.warmup = opt.warmup;
        spec.physicalL1i = opt.physical;
        spec.why = opt.why;
        spec.whyTop = opt.whyTop;
        spec.sampleMode = opt.sampleMode;
        spec.sampleWindow = opt.sampleWindow;
        spec.samplePeriod = opt.samplePeriod;
        spec.sampleSeed = opt.sampleSeed;
        spec.sampleWarm = opt.sampleWarm;
        if (!opt.statsJsonPath.empty())
            spec.sampleInterval = opt.sampleInterval;

        // Corpus traces ride the same batch as the synthetic catalogue,
        // gated by the per-trace MPKI qualification; every admission and
        // skip is reported so a silently thin suite cannot masquerade as
        // a full one.
        std::vector<std::string> suite_notes;
        std::vector<trace::Workload> suite =
            mixedCatalogue(opt.suiteTraces, &suite_notes);
        for (const std::string &line : suite_notes)
            std::fprintf(stderr, "suite-trace: %s\n", line.c_str());

        unsigned jobs = exec::resolveJobs(opt.jobs);
        auto started = std::chrono::steady_clock::now();
        std::vector<RunResult> results;
        if (!opt.statsJsonPath.empty()) {
            std::vector<RunJob> batch;
            for (const auto &w : suite)
                batch.push_back(RunJob{w, spec});
            results = runBatchWithArtifacts(batch, jobs, opt.statsJsonPath);
        } else {
            results = runSuite(suite, spec, jobs);
        }
        double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count();

        if (opt.json) {
            for (const RunResult &r : results)
                std::printf("%s\n", resultToJson(r).c_str());
            return 0;
        }
        std::printf("%-12s %-7s %8s %10s %9s %9s\n", "workload", "categ",
                    "IPC", "L1I-MPKI", "coverage", "accuracy");
        for (const RunResult &r : results) {
            std::printf("%-12s %-7s %8.4f %10.2f %9.4f %9.4f\n",
                        r.workload.c_str(), r.category.c_str(),
                        r.stats.ipc(), r.stats.l1iMpki(),
                        r.stats.l1i.coverage(), r.stats.l1i.accuracy());
        }
        std::printf("\n%zu workloads under %s in %.2fs (jobs=%u)\n",
                    results.size(),
                    results.empty() ? opt.prefetcher.c_str()
                                    : results.front().configName.c_str(),
                    seconds, jobs);
        return 0;
    }

    RunResult result;
    obs::RunManifest manifest;
    std::unique_ptr<obs::EventTracer> tracer;
    if (!opt.traceOutPath.empty()) {
        obs::TraceConfig tcfg;
        tcfg.limit = static_cast<size_t>(opt.traceLimit);
        // Validated by parseCli; fall back to everything defensively.
        tcfg.families = obs::parseTraceFamilies(opt.traceEvents)
                            .value_or(obs::kTraceAll);
        tracer = std::make_unique<obs::EventTracer>(tcfg);
    }
    // Host-side phase attribution for the artifact's manifest
    // (phase_ms). A timing field like hostWallMs: armed only when an
    // artifact is requested, and never part of the canonical run bytes.
    obs::PhaseProfiler profiler;
    obs::PhaseProfiler *prof =
        opt.statsJsonPath.empty() ? nullptr : &profiler;
    auto run_started = std::chrono::steady_clock::now();
    {
        // Resolve what to run. A recognized trace path (.trc,
        // .champsimtrace[.xz|.gz]) becomes a trace-backed workload with
        // the file's content digest as identity, and runs through the
        // exact same runOne path as the synthetic catalogue — no
        // hand-rolled replay loop that can drift from the runner.
        trace::Workload chosen;
        if (trace::isTracePath(opt.workload)) {
            std::string trace_error;
            if (!trace::tryTraceWorkload(opt.workload, chosen,
                                         &trace_error)) {
                std::fprintf(stderr, "error: %s\n", trace_error.c_str());
                return 2;
            }
        } else if (!findWorkload(opt.workload, chosen)) {
            std::fprintf(stderr,
                         "error: unknown workload '%s' "
                         "(try --list-workloads)\n",
                         opt.workload.c_str());
            return 2;
        }
        RunSpec spec;
        spec.configId = opt.prefetcher;
        spec.dataPrefetcher = opt.dataPrefetcher;
        spec.instructions = opt.instructions;
        spec.warmup = opt.warmup;
        spec.physicalL1i = opt.physical;
        spec.wrongPath = opt.wrongPath;
        spec.why = opt.why;
        spec.whyTop = opt.whyTop;
        spec.sampleMode = opt.sampleMode;
        spec.sampleWindow = opt.sampleWindow;
        spec.samplePeriod = opt.samplePeriod;
        spec.sampleSeed = opt.sampleSeed;
        spec.sampleWarm = opt.sampleWarm;
        if (!opt.statsJsonPath.empty()) {
            spec.collectCounters = true;
            spec.sampleInterval = opt.sampleInterval;
        }
        spec.tracer = tracer.get();
        spec.profiler = prof;
        result = runOne(chosen, spec);
        manifest = makeManifest(chosen, spec, result);
    }

    if (tracer != nullptr) {
        tracer->finish();
        std::vector<std::pair<std::string, std::string>> trace_meta = {
            {"tool", "eipsim"},
            {"workload", result.workload},
            {"config", result.configName},
            {"git_describe", obs::buildGitDescribe()},
        };
        writeTextFile(opt.traceOutPath, tracer->toJson(trace_meta));
    }

    if (!opt.statsJsonPath.empty()) {
        manifest.sampleInterval = opt.sampleInterval;
        manifest.wallClockSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          run_started)
                .count();
        manifest.jobs = 1;
        // Host simulation speed over the whole run (warm-up + measured
        // instructions; the warm-up is simulated work all the same). A
        // sampled run only covers what its schedule actually executed —
        // warmed + fast-forwarded + detailed-window instructions; the
        // tail past the last window is never touched — so its MIPS
        // numerator comes from the sampling summary, not the spec.
        manifest.hostWallMs = manifest.wallClockSeconds * 1000.0;
        double wall_us = manifest.wallClockSeconds * 1e6;
        double covered = static_cast<double>(opt.warmup + opt.instructions);
        if (result.hasSampling)
            covered = static_cast<double>(
                result.sampling.warmedInstructions +
                result.sampling.skippedInstructions +
                result.sampling.windowInstructions);
        manifest.hostMips = wall_us > 0.0 ? covered / wall_us : 0.0;
        profiler.close();
        manifest.phaseMs = profiler.totalsMs();
        writeTextFile(opt.statsJsonPath,
                      runArtifactJson(manifest, result,
                                      /*include_timing=*/true));
    }

    if (opt.json) {
        std::printf("%s\n", resultToJson(result).c_str());
        return 0;
    }
    const sim::SimStats &s = result.stats;
    std::printf("workload      %s\n", result.workload.c_str());
    std::printf("config        %s (%.2f KB)\n", result.configName.c_str(),
                result.storageKB);
    std::printf("instructions  %llu\n",
                static_cast<unsigned long long>(s.instructions));
    std::printf("cycles        %llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("IPC           %.4f\n", s.ipc());
    std::printf("L1I MPKI      %.2f (miss ratio %.4f)\n", s.l1iMpki(),
                s.l1i.missRatio());
    std::printf("coverage      %.4f\n", s.l1i.coverage());
    std::printf("accuracy      %.4f\n", s.l1i.accuracy());
    std::printf("prefetches    issued %llu, useful %llu, late %llu, "
                "wrong %llu\n",
                static_cast<unsigned long long>(s.l1i.prefetchIssued),
                static_cast<unsigned long long>(s.l1i.usefulPrefetches),
                static_cast<unsigned long long>(s.l1i.latePrefetches),
                static_cast<unsigned long long>(s.l1i.wrongPrefetches));
    if (result.hasSampling) {
        const sample::Summary &sm = result.sampling;
        std::printf("sampling      %llu windows x %llu insts "
                    "(warmed %llu, offset %llu)\n",
                    static_cast<unsigned long long>(sm.windows),
                    static_cast<unsigned long long>(
                        sm.windows > 0
                            ? sm.windowInstructions / sm.windows : 0),
                    static_cast<unsigned long long>(sm.warmedInstructions),
                    static_cast<unsigned long long>(sm.offset));
        std::printf("IPC 95%% CI    %.4f +/- %.4f\n", sm.ipc.estimate,
                    sm.ipc.ci95);
        std::printf("MPKI 95%% CI   %.2f +/- %.2f\n", sm.l1iMpki.estimate,
                    sm.l1iMpki.ci95);
    }
    if (result.why.enabled) {
        std::printf("miss blame    ");
        const char *sep = "";
        for (size_t i = 0; i < obs::kMissBlameCount; ++i) {
            if (result.why.blame[i] == 0)
                continue;
            std::printf("%s%s %llu", sep,
                        obs::missBlameName(
                            static_cast<obs::MissBlame>(i + 1)),
                        static_cast<unsigned long long>(
                            result.why.blame[i]));
            sep = ", ";
        }
        std::printf("\n");
    }
    if (s.l1i.wrongPathAccesses > 0) {
        std::printf("wrong path    %llu accesses, %llu misses\n",
                    static_cast<unsigned long long>(
                        s.l1i.wrongPathAccesses),
                    static_cast<unsigned long long>(
                        s.l1i.wrongPathMisses));
    }
    return 0;
}

} // namespace eip::harness
