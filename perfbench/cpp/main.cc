/**
 * @file
 * perfbench: one workload per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --pins FILE --fixture FILE --out DIR
 *             [--setup-only | --pin | --tamper]
 *
 * Untraced, it prints a steadiness line and then one JSON result line of
 * end-to-end metrics. Traced, it runs half the time untraced and half
 * traced (the difference is the tracing overhead), then the layer
 * probes, writes a Chrome trace_event file to DIR, prints the per-layer
 * self-time table and one JSON result line of per-layer metrics.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "arith.hh"
#include "bench.hh"
#include "spans.hh"

using namespace perfbench;

namespace {

/** Captured during static initialisation: the process start as far as
 *  the benchmark can observe it. */
const uint64_t gProcessStartNs = nowNs();

[[noreturn]] void
usage(const char *error)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --pins FILE --fixture FILE "
                 "--out DIR [--setup-only|--pin|--tamper]\n",
                 error);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--pins")
            o.pinsPath = value();
        else if (arg == "--fixture")
            o.fixturePath = value();
        else if (arg == "--out")
            o.outDir = value();
        else if (arg == "--setup-only")
            o.setupOnly = true;
        else if (arg == "--pin")
            o.pin = true;
        else if (arg == "--tamper")
            o.tamper = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (o.workload.empty() || o.pinsPath.empty() || o.fixturePath.empty() ||
        o.outDir.empty())
        usage("--workload, --pins, --fixture and --out are required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/** Chunks of the calibration kernel run at each end of set-up and of a
 *  run (host_ref_ms). */
constexpr int kEndChunks = 8;

/** Run @p n calibration chunks, appending their times to @p into;
 *  returns their mean. */
double
calibrateEnd(int n, std::vector<double> &into)
{
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        into.push_back(calibrationChunkMs());
        sum += into.back();
    }
    return sum / n;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, double> &metrics)
{
    std::string out = "{";
    for (const auto &[name, value] : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": " + number(value);
    }
    return out + "}";
}

void
printResult(bool correct, const Samples &s,
            const std::map<std::string, double> &metrics)
{
    for (const std::string &f : s.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(s.attempted),
                static_cast<unsigned long long>(s.failed),
                metricsJson(metrics).c_str());
}

/** The percentile rule: report a percentile only with ten samples
 *  beyond it; a shortfall makes the run incorrect. */
double
reportedPercentile(const std::vector<double> &samples, unsigned percent,
                   const char *what, bool &ok)
{
    if (!percentileReportable(samples.size(), percent)) {
        std::fprintf(stderr,
                     "perfbench: %s: %zu samples leave fewer than ten beyond "
                     "p%u\n",
                     what, samples.size(), percent);
        ok = false;
    }
    return percentile(samples, percent);
}

/** Nanoseconds to open and close one span on a scratch recorder. */
double
spanCostNs()
{
    SpanRecorder scratch;
    constexpr int kSpans = 20000;
    const uint64_t t0 = nowNs();
    for (int i = 0; i < kSpans; ++i)
        scratch.close(scratch.open("bench.cost"));
    return static_cast<double>(nowNs() - t0) / kSpans;
}

int
untraced(Context &ctx, Workload &w, double setupS, double refStart)
{
    Samples s;
    w.run(ctx, ctx.opts.seconds, s);
    w.finish(ctx, s);
    std::vector<double> endChunks;
    const double refEnd = calibrateEnd(kEndChunks, endChunks);

    bool ok = s.failed == 0;
    std::map<std::string, double> raw;
    // Rates over all windows together: host speed comes in phases, and
    // a median over windows would flip between them.
    raw["host_mips"] = s.instructions / s.seconds / 1e6;
    raw["throughput_rps"] = s.completed / s.seconds;
    raw["hit_p50_ms"] = reportedPercentile(s.hitMs, 50, "hits", ok);
    raw["hit_p99_ms"] = s.hitP99Windows.empty()
                            ? reportedPercentile(s.hitMs, 99, "hits", ok)
                            : lowerQuartile(s.hitP99Windows);
    raw["cold_p50_ms"] = reportedPercentile(s.coldMs, 50, "cold", ok);
    raw["cold_p90_ms"] = reportedPercentile(s.coldMs, 90, "cold", ok);

    // Times and rates as on the nominal host, from the calibration
    // chunks run between the timed units (none on serve-storm, whose
    // own threads would set the chunks' pace: slowdown 1).
    const double slowdown =
        hostSlowdown(s.calibrationMs, kNominalCalibrationMs);
    std::map<std::string, double> m;
    for (const auto &[name, value] : raw)
        m[name] = name == "host_mips" || name == "throughput_rps"
                      ? value * slowdown
                      : value / slowdown;
    m["setup_s"] = setupS;
    m["peak_rss_mb"] = peakRssMb();

    // Steadiness: the within-run spread of each metric's timed units,
    // beside the host calibration at both ends of the run.
    std::map<std::string, double> steady;
    steady["host_mips"] = spread(s.windowMips);
    steady["throughput_rps"] = spread(s.windowRps);
    steady["hit_ms"] = spread(s.hitMs);
    steady["cold_ms"] = spread(s.coldMs);
    if (!s.hitP99Windows.empty())
        steady["hit_p99_windows"] = spread(s.hitP99Windows);
    steady["calibration_ms"] = spread(s.calibrationMs);
    std::printf("{\"steadiness\": %s, \"windows\": %zu, \"hits\": %zu, "
                "\"cold\": %zu, \"host_ref_ms\": [%s, %s], "
                "\"host_slowdown\": %s, \"uncalibrated\": %s}\n",
                metricsJson(steady).c_str(), s.windowMips.size(),
                s.hitMs.size(), s.coldMs.size(), number(refStart).c_str(),
                number(refEnd).c_str(), number(slowdown).c_str(),
                metricsJson(raw).c_str());
    printResult(ok, s, m);
    return 0;
}

int
traced(Context &ctx, Workload &w, double refStart)
{
    const double half = ctx.opts.seconds / 2.0;
    ctx.enforceMinimums = false;
    Samples plain;
    w.run(ctx, half, plain);

    enableRecorder();
    Samples tracedSamples;
    int64_t root;
    {
        ScopedSpan span("bench.workload");
        root = span.id();
        w.run(ctx, half, tracedSamples);
    }
    w.finish(ctx, tracedSamples);

    LayerMetrics m;
    runLayerProbes(ctx, w.probeInputs(ctx), m);
    std::vector<double> chunks;
    const double refEnd = calibrateEnd(kEndChunks, chunks);

    const std::vector<Span> spans = recorder()->spans();
    const std::vector<uint64_t> self = selfTimesNs(spans);
    const Span &rootSpan = spans[static_cast<size_t>(root)];
    const double wallNs =
        static_cast<double>(rootSpan.endNs - rootSpan.startNs);

    // Self time per layer over the traced loop (the root's subtree).
    std::vector<bool> inLoop(spans.size(), false);
    std::map<std::string, std::pair<double, uint64_t>> layers;
    for (size_t i = 0; i < spans.size(); ++i) {
        const int64_t p = spans[i].parent;
        inLoop[i] = static_cast<int64_t>(i) == root ||
                    (p >= 0 && inLoop[static_cast<size_t>(p)]);
        if (inLoop[i] && static_cast<int64_t>(i) != root) {
            layers[spans[i].name].first += static_cast<double>(self[i]);
            layers[spans[i].name].second += 1;
        }
    }
    const double unattributed = static_cast<double>(self[root]);
    std::printf("%-24s %12s %8s %10s\n", "layer (traced loop)", "self_ms",
                "share", "spans");
    for (const auto &[name, total] : layers)
        std::printf("%-24s %12.3f %8.4f %10llu\n", name.c_str(),
                    total.first / 1e6, total.first / wallNs,
                    static_cast<unsigned long long>(total.second));
    std::printf("%-24s %12.3f %8.4f\n", "(unattributed)", unattributed / 1e6,
                unattributed / wallNs);

    // Overhead two ways: the recording cost of the loop's spans (exact
    // but blind to cache effects), and traced against untraced median
    // unit latency (complete but as noisy as the host).
    uint64_t loopSpans = 0;
    for (bool in : inLoop)
        loopSpans += in;
    m["bench.span_coverage"] = 1.0 - unattributed / wallNs;
    m["bench.trace_overhead_pct"] =
        100.0 * spanCostNs() * static_cast<double>(loopSpans) / wallNs;
    m["bench.traced_vs_untraced_pct"] =
        100.0 * (median(tracedSamples.coldMs) / median(plain.coldMs) - 1.0);
    m["host.ref_ms"] = (refStart + refEnd) / 2.0;

    const std::string path = ctx.opts.outDir + "/trace-" + ctx.opts.workload +
                             "-" + std::to_string(ctx.opts.seed) + ".json";
    std::ofstream(path) << recorder()->chromeTraceJson();
    std::printf("trace_event JSON: %s (%zu spans)\n", path.c_str(),
                spans.size());

    Samples total = plain;
    total.attempted += tracedSamples.attempted;
    total.failed += tracedSamples.failed;
    for (const std::string &f : tracedSamples.failures)
        total.failures.push_back(f);
    printResult(total.failed == 0, total, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    ctx.opts = parseArgs(argc, argv);
    ctx.rng.seed(ctx.opts.seed);
    std::unique_ptr<Workload> w = makeWorkload(ctx.opts.workload);
    if (w == nullptr)
        usage(("unknown workload " + ctx.opts.workload).c_str());

    // Pin mode rewrites this workload's digests and keeps the others'.
    ctx.pins.pinning = ctx.opts.pin;
    std::string error;
    if (!ctx.pins.load(ctx.opts.pinsPath, &error) && !ctx.opts.pin)
        usage(error.c_str());

    std::vector<double> setupChunks;
    const uint64_t refStartNs = nowNs();
    const double refStart = calibrateEnd(kEndChunks, setupChunks);
    const uint64_t refEndNs = nowNs();
    w->setup(ctx);
    // Set-up time from process start, less the calibration kernel, as
    // on the nominal host (chunks on both sides of the set-up).
    const double rawSetupS = secondsBetween(gProcessStartNs, nowNs()) -
                             secondsBetween(refStartNs, refEndNs);
    calibrateEnd(kEndChunks, setupChunks);
    const double setupS =
        rawSetupS / hostSlowdown(setupChunks, kNominalCalibrationMs);

    if (ctx.opts.setupOnly) {
        std::printf("{\"setup_s\": %s}\n", number(setupS).c_str());
        return 0;
    }
    if (ctx.opts.pin) {
        w->pinAll(ctx);
        if (ctx.pins.conflicts > 0)
            usage("one cell produced two different digests");
        if (!ctx.pins.save(ctx.opts.pinsPath))
            usage(("cannot write " + ctx.opts.pinsPath).c_str());
        return 0;
    }
    return ctx.opts.trace ? traced(ctx, *w, refStart)
                          : untraced(ctx, *w, setupS, refStart);
}
