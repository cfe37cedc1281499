/**
 * @file
 * Tests for the flight-recorder layer (src/obs log/span/phase plus the
 * serve-side request ledger): structured-log rendering and level
 * gating, phase-profiler accounting, span-collector ring/roll-up
 * semantics and the eip-span/v1 fork framing, the serve-trace reader
 * round trip, interpolated histogram percentiles, the request ledger
 * with its Prometheus exposition, and the daemon end to end —
 * span terminals reconciling exactly against the serve counters for
 * every outcome class (done, cache, crashed, rejected).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "harness/artifacts.hh"
#include "obs/json.hh"
#include "obs/log.hh"
#include "obs/phase.hh"
#include "obs/registry.hh"
#include "obs/span.hh"
#include "obs/trace_reader.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/metrics.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"
#include "trace/workloads.hh"
#include "util/histogram.hh"
#include "util/rng.hh"
#include "util/stats_math.hh"

namespace {

using namespace eip;

/** Unique socket path per test so parallel ctest runs never collide. */
std::string
testSocket(const std::string &tag)
{
    return "/tmp/eip_flight_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

/** A fast tiny-workload request (sub-second even in Debug). */
serve::RunRequest
tinyRequest()
{
    serve::RunRequest run;
    run.workload = "tiny";
    run.instructions = 20000;
    run.warmup = 10000;
    return run;
}

/** RAII guard: capture log lines and force a level, restoring the
 *  global logger on exit so tests never leak state into one another. */
class LogCapture
{
  public:
    explicit LogCapture(obs::LogLevel level)
        : previous_(obs::Logger::global().level())
    {
        obs::Logger::global().setLevel(level);
        obs::Logger::global().setCapture(&lines);
    }
    ~LogCapture()
    {
        obs::Logger::global().setCapture(nullptr);
        obs::Logger::global().setLevel(previous_);
    }

    std::vector<std::string> lines;

  private:
    obs::LogLevel previous_;
};

TEST(StructuredLog, RenderLineIsOneSelfDescribingJsonDocument)
{
    std::string line = obs::Logger::renderLine(
        obs::LogLevel::Info, "eipd", "job_done",
        {obs::LogField("job", uint64_t{7}), obs::LogField("wall_ms", 12.5),
         obs::LogField("crashed", false), obs::LogField("key", "abc"),
         obs::LogField("delta", -3)});
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    // Exactly one line: NDJSON discipline.
    EXPECT_EQ(line.find('\n'), line.size() - 1);

    line.pop_back();
    std::string error;
    auto doc = obs::parseJson(line, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("schema")->string, "eip-log/v1");
    EXPECT_EQ(doc->find("level")->string, "info");
    EXPECT_EQ(doc->find("component")->string, "eipd");
    EXPECT_EQ(doc->find("event")->string, "job_done");
    ASSERT_NE(doc->find("ts_us"), nullptr);
    EXPECT_TRUE(doc->find("ts_us")->isNumber());
    EXPECT_EQ(doc->find("job")->asU64(), 7u);
    EXPECT_DOUBLE_EQ(doc->find("wall_ms")->number, 12.5);
    EXPECT_EQ(doc->find("key")->string, "abc");
    EXPECT_DOUBLE_EQ(doc->find("delta")->number, -3.0);
}

TEST(StructuredLog, LevelGatesEmissionAndCaptureSeesFullLines)
{
    LogCapture capture(obs::LogLevel::Warn);
    EIP_LOG_DEBUG("test", "too_quiet");
    EIP_LOG_INFO("test", "still_too_quiet");
    EXPECT_TRUE(capture.lines.empty());

    EIP_LOG_WARN("test", "loud_enough", obs::LogField("n", uint64_t{1}));
    EIP_LOG_ERROR("test", "very_loud");
    ASSERT_EQ(capture.lines.size(), 2u);
    EXPECT_NE(capture.lines[0].find("\"event\":\"loud_enough\""),
              std::string::npos);
    EXPECT_NE(capture.lines[1].find("\"level\":\"error\""),
              std::string::npos);

    obs::Logger::global().setLevel(obs::LogLevel::Off);
    EIP_LOG_ERROR("test", "silenced");
    EXPECT_EQ(capture.lines.size(), 2u);
}

TEST(StructuredLog, ParseLogLevelAcceptsExactlyTheDocumentedNames)
{
    EXPECT_EQ(obs::parseLogLevel("debug"), obs::LogLevel::Debug);
    EXPECT_EQ(obs::parseLogLevel("info"), obs::LogLevel::Info);
    EXPECT_EQ(obs::parseLogLevel("warn"), obs::LogLevel::Warn);
    EXPECT_EQ(obs::parseLogLevel("error"), obs::LogLevel::Error);
    EXPECT_EQ(obs::parseLogLevel("off"), obs::LogLevel::Off);
    EXPECT_FALSE(obs::parseLogLevel("verbose").has_value());
    EXPECT_FALSE(obs::parseLogLevel("").has_value());
    for (obs::LogLevel level :
         {obs::LogLevel::Debug, obs::LogLevel::Info, obs::LogLevel::Warn,
          obs::LogLevel::Error, obs::LogLevel::Off})
        EXPECT_EQ(obs::parseLogLevel(obs::logLevelName(level)), level);
}

TEST(PhaseProfiler, TotalsAccumulateInFirstSeenOrder)
{
    obs::PhaseProfiler profiler;
    profiler.transition("warmup");
    profiler.transition("measure");
    profiler.transition("warmup"); // revisits fold into the first entry
    profiler.transition("fill_drain");
    profiler.close();
    ASSERT_EQ(profiler.intervals().size(), 4u);
    // Intervals are spans in time order: each ends where the next starts.
    for (size_t i = 1; i < profiler.intervals().size(); ++i) {
        const obs::SpanRecord &prev = profiler.intervals()[i - 1];
        EXPECT_EQ(prev.startUs + prev.durUs,
                  profiler.intervals()[i].startUs);
    }

    auto totals = profiler.totalsMs();
    ASSERT_EQ(totals.size(), 3u);
    EXPECT_EQ(totals[0].first, "warmup");
    EXPECT_EQ(totals[1].first, "measure");
    EXPECT_EQ(totals[2].first, "fill_drain");

    // close() is idempotent once idle: no phantom intervals.
    profiler.close();
    EXPECT_EQ(profiler.intervals().size(), 4u);
}

TEST(PhaseProfiler, ScopeRestoresTheEnclosingPhase)
{
    obs::PhaseProfiler profiler;
    profiler.transition("measure");
    {
        obs::PhaseProfiler::Scope scope(&profiler, "program_build");
    }
    {
        obs::PhaseProfiler::Scope scope(nullptr, "ignored"); // no-op
    }
    profiler.close();
    ASSERT_EQ(profiler.intervals().size(), 3u);
    EXPECT_EQ(profiler.intervals()[0].name, "measure");
    EXPECT_EQ(profiler.intervals()[1].name, "program_build");
    EXPECT_EQ(profiler.intervals()[2].name, "measure"); // resumed
}

TEST(HistogramPercentile, AgreesWithTheSharedType7Estimator)
{
    // Distinct integer keys: the bucketed multiset and the raw vector
    // are the same data, so both estimators must agree exactly.
    const std::vector<size_t> keys = {1, 3, 3, 7, 10, 12, 12, 12, 20, 31};
    Histogram hist(64);
    std::vector<double> values;
    for (size_t key : keys) {
        hist.record(key);
        values.push_back(static_cast<double>(key));
    }
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(hist.percentile(q), eip::percentile(values, q))
            << "q=" << q;

    Histogram empty(8);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

using Outcome = serve::RequestLedger::Outcome;

/** A fixed monotonic origin for the ledger tests' explicit clock. */
constexpr uint64_t kT0 = 1000000000ull;
constexpr uint64_t kSecond = 1000000ull;

/** True when @p got is within one latency bucket (1/16) of @p want. */
::testing::AssertionResult
withinOneBucket(double got, double want)
{
    if (std::fabs(got - want) <= want / 16.0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << got << " is not within 1/16 of " << want;
}

TEST(MetricsWindow, ViewCountsOutcomesAndInterpolatesLatencies)
{
    serve::RequestLedger ledger(60, kT0);
    const uint64_t now = kT0 + 30 * kSecond;
    ledger.record(Outcome::Cache, 1.0, now);
    ledger.record(Outcome::Cache, 2.0, now);
    ledger.record(Outcome::Simulated, 10.0, now);
    ledger.record(Outcome::Simulated, 20.0, now);
    ledger.record(Outcome::Failed, 5.0, now);
    ledger.record(Outcome::Rejected, 0.0, now);

    serve::RequestLedger::View view = ledger.view(now);
    EXPECT_EQ(view.windowSeconds, 60u);
    EXPECT_EQ(view.window.requests, 6u);
    EXPECT_EQ(view.window.of(Outcome::Cache), 2u);
    EXPECT_EQ(view.window.of(Outcome::Simulated), 2u);
    EXPECT_EQ(view.window.of(Outcome::Failed), 1u);
    EXPECT_EQ(view.window.of(Outcome::Rejected), 1u);
    // The ledger is 30 s old: the window has seen only those 30 s.
    EXPECT_DOUBLE_EQ(view.qps, 6.0 / 30.0);
    EXPECT_DOUBLE_EQ(view.hitRatio, 2.0 / 4.0);
    // Percentiles span the completed requests only (rejected never ran).
    EXPECT_TRUE(withinOneBucket(
        view.window.p50Ms, eip::percentile({1.0, 2.0, 10.0, 20.0, 5.0}, 0.5)));
    EXPECT_GE(view.window.p99Ms, view.window.p95Ms);
    EXPECT_GE(view.window.p95Ms, view.window.p50Ms);

    serve::RequestLedger idle(60, kT0);
    serve::RequestLedger::View empty = idle.view(kT0 + 30 * kSecond);
    EXPECT_EQ(empty.window.requests, 0u);
    EXPECT_DOUBLE_EQ(empty.qps, 0.0);
    EXPECT_DOUBLE_EQ(empty.hitRatio, 0.0);
    EXPECT_DOUBLE_EQ(empty.window.p50Ms, 0.0);
}

TEST(RequestLedger, CountsEveryRequestInsideOneWindow)
{
    // More requests than a storm at ~2,300 rps puts in a 60 s window.
    serve::RequestLedger ledger(60, kT0);
    for (uint64_t i = 0; i < 130000; ++i) {
        ledger.record(i % 100 == 0 ? Outcome::Simulated : Outcome::Cache,
                      0.2, kT0 + i * 400); // 2,500 rps for 52 s
        if (i + 1 == 70000) {
            EXPECT_EQ(ledger.view(kT0 + i * 400).window.requests, 70000u);
        }
    }
    serve::RequestLedger::View view = ledger.view(kT0 + 52 * kSecond);
    EXPECT_EQ(view.window.requests, 130000u);
    EXPECT_EQ(view.window.of(Outcome::Simulated), 1300u);
    EXPECT_EQ(view.sinceStart.requests, 130000u);
}

TEST(RequestLedger, ResolvesSubMillisecondAndSlowRequests)
{
    serve::RequestLedger fast(60, kT0);
    fast.record(Outcome::Cache, 0.18, kT0);
    serve::RequestLedger::View view = fast.view(kT0);
    EXPECT_GT(view.window.p50Ms, 0.0);
    EXPECT_TRUE(withinOneBucket(view.window.p50Ms, 0.18));
    EXPECT_TRUE(withinOneBucket(view.sinceStart.p50Ms, 0.18));

    serve::RequestLedger slow(60, kT0);
    slow.record(Outcome::Simulated, 230.0, kT0);
    view = slow.view(kT0);
    EXPECT_GE(view.window.p99Ms, 200.0);
    EXPECT_GE(view.sinceStart.p99Ms, 200.0);
    EXPECT_DOUBLE_EQ(view.latencySumMs, 230.0);
}

TEST(RequestLedger, PercentilesAgreeWithTheSharedEstimatorWithinOneBucket)
{
    // Log-uniform over 0.05..300 ms: every octave of the range is hit.
    serve::RequestLedger ledger(60, kT0);
    Rng rng(27);
    std::vector<double> latencies;
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double ms = 0.05 * std::pow(300.0 / 0.05, rng.uniform());
        latencies.push_back(ms);
        sum += ms;
        ledger.record(Outcome::Cache, ms, kT0 + 10 * kSecond);
    }
    serve::RequestLedger::View view = ledger.view(kT0 + 10 * kSecond);
    for (const serve::RequestLedger::Summary &s :
         {view.window, view.sinceStart}) {
        EXPECT_TRUE(withinOneBucket(s.p50Ms, percentile(latencies, 0.50)));
        EXPECT_TRUE(withinOneBucket(s.p95Ms, percentile(latencies, 0.95)));
        EXPECT_TRUE(withinOneBucket(s.p99Ms, percentile(latencies, 0.99)));
    }
    EXPECT_NEAR(view.latencySumMs, sum, sum * 1e-12);
}

TEST(RequestLedger, OldRequestsLeaveTheWindowButNotTheTotals)
{
    serve::RequestLedger ledger(60, kT0);
    ledger.record(Outcome::Simulated, 100.0, kT0 + 5 * kSecond);
    ledger.record(Outcome::Crashed, 50.0, kT0 + 5 * kSecond);
    ledger.record(Outcome::Cache, 0.3, kT0 + 70 * kSecond);
    ledger.record(Outcome::Rejected, 0.0, kT0 + 70 * kSecond);

    serve::RequestLedger::View view = ledger.view(kT0 + 70 * kSecond);
    EXPECT_EQ(view.window.requests, 2u);
    EXPECT_EQ(view.window.of(Outcome::Simulated), 0u);
    EXPECT_EQ(view.window.of(Outcome::Crashed), 0u);
    EXPECT_DOUBLE_EQ(view.hitRatio, 1.0);
    EXPECT_TRUE(withinOneBucket(view.window.p99Ms, 0.3));

    EXPECT_EQ(view.sinceStart.requests, 4u);
    EXPECT_EQ(view.sinceStart.of(Outcome::Simulated), 1u);
    EXPECT_EQ(view.sinceStart.of(Outcome::Crashed), 1u);
    EXPECT_EQ(view.sinceStart.of(Outcome::Cache), 1u);
    EXPECT_EQ(view.sinceStart.of(Outcome::Rejected), 1u);
    EXPECT_DOUBLE_EQ(view.latencySumMs, 150.3);
    EXPECT_GE(view.sinceStart.p99Ms, 90.0);

    // A long idle spell empties the window entirely.
    view = ledger.view(kT0 + 200 * kSecond);
    EXPECT_EQ(view.window.requests, 0u);
    EXPECT_DOUBLE_EQ(view.qps, 0.0);
    EXPECT_EQ(view.sinceStart.requests, 4u);
}

TEST(RequestLedger, QpsCountsOnlyTheTimeTheLedgerHasExisted)
{
    // 2,000 requests a second for the first 10 s of a 60 s window.
    serve::RequestLedger ledger(60, kT0);
    for (uint64_t i = 0; i < 20000; ++i)
        ledger.record(Outcome::Cache, 0.2, kT0 + i * 500);
    EXPECT_DOUBLE_EQ(ledger.view(kT0 + 10 * kSecond).qps, 2000.0);

    // Once the ledger is older than the window, the span is the counted
    // slots: 59 whole ones (the 100 s slot has dropped out) plus the
    // current one, which has just begun.
    serve::RequestLedger old(60, kT0);
    for (uint64_t i = 0; i < 60000; ++i)
        old.record(Outcome::Cache, 0.2, kT0 + 100 * kSecond + i * 1000);
    serve::RequestLedger::View view = old.view(kT0 + 160 * kSecond);
    EXPECT_EQ(view.window.requests, 59000u);
    EXPECT_DOUBLE_EQ(view.qps, 1000.0);
}

TEST(RequestLedger, ConcurrentRecordAndView)
{
    // Connection and worker threads record while stats/metrics read.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    serve::RequestLedger ledger(60, obs::monotonicMicros());
    std::atomic<bool> done{false};
    uint64_t last_seen = 0;
    std::thread reader([&] {
        while (!done.load()) {
            const uint64_t seen =
                ledger.view(obs::monotonicMicros()).sinceStart.requests;
            EXPECT_GE(seen, last_seen);
            last_seen = seen;
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                ledger.record(i % 2 == 0 ? Outcome::Cache : Outcome::Simulated,
                              0.1 * (t + 1), obs::monotonicMicros());
        });
    for (std::thread &writer : writers)
        writer.join();
    done.store(true);
    reader.join();

    serve::RequestLedger::View view = ledger.view(obs::monotonicMicros());
    EXPECT_EQ(view.sinceStart.requests, uint64_t{kThreads * kPerThread});
    EXPECT_EQ(view.window.requests, uint64_t{kThreads * kPerThread});
    EXPECT_EQ(view.window.of(Outcome::Cache),
              uint64_t{kThreads * kPerThread / 2});
}

TEST(MetricsWindow, PrometheusExpositionRendersTheWholeRegistry)
{
    obs::CounterRegistry registry;
    uint64_t hits = 42;
    registry.counter("serve.cache.hits", &hits);
    registry.gauge("serve.window.qps", [] { return 1.5; });
    // The daemon's latency pair: an exact count and sum (ms).
    uint64_t wall_count = 2;
    registry.counter("serve.request_wall_ms.count", &wall_count);
    registry.gauge("serve.request_wall_ms.sum", [] { return 8.25; });

    std::string page = serve::prometheusText(
        registry.dump(), {{"tool", "eipd"}, {"git_describe", "test"}});
    EXPECT_NE(page.find("# TYPE eip_serve_cache_hits counter"),
              std::string::npos);
    EXPECT_NE(page.find("eip_serve_cache_hits 42"), std::string::npos);
    EXPECT_NE(page.find("# TYPE eip_serve_window_qps gauge"),
              std::string::npos);
    EXPECT_NE(page.find("eip_serve_request_wall_ms_count 2"),
              std::string::npos);
    EXPECT_NE(page.find("eip_serve_request_wall_ms_sum 8.25"),
              std::string::npos);
    EXPECT_NE(page.find("eip_build_info{"), std::string::npos);
    EXPECT_NE(page.find("tool=\"eipd\""), std::string::npos);
    // Exposition pages end with a newline (scrapers require it).
    ASSERT_FALSE(page.empty());
    EXPECT_EQ(page.back(), '\n');
}

TEST(SpanCollector, RingWrapKeepsTerminalRollupsExact)
{
    obs::SpanCollector collector(4);
    const char *states[] = {"done", "done", "cache", "failed", "crashed",
                            "rejected", "done", "cache", "done", "done"};
    for (const char *state : states) {
        uint64_t id = collector.newTrace();
        collector.record({id, "queued", obs::monotonicMicros(), 5, ""});
        collector.record(
            {id, "request", obs::monotonicMicros(), 10, state});
    }
    EXPECT_EQ(collector.recorded(), 20u);
    EXPECT_EQ(collector.retained(), 4u);
    EXPECT_EQ(collector.dropped(), 16u);

    // The roll-ups survive the wrap: every root span counted exactly.
    auto terminals = collector.terminals();
    EXPECT_EQ(terminals["done"], 5u);
    EXPECT_EQ(terminals["cache"], 2u);
    EXPECT_EQ(terminals["failed"], 1u);
    EXPECT_EQ(terminals["crashed"], 1u);
    EXPECT_EQ(terminals["rejected"], 1u);
}

TEST(SpanCollector, ToJsonRoundTripsThroughTheServeTraceReader)
{
    obs::SpanCollector collector(64);
    uint64_t first = collector.newTrace();
    const uint64_t base = obs::monotonicMicros();
    collector.record({first, "cache_lookup", base, 3, ""});
    collector.record({first, "queued", base + 3, 40, ""});
    collector.record({first, "forked", base + 43, 900, ""});
    collector.recordChild(first, {{0, "measure", base + 100, 700, ""}});
    collector.record({first, "request", base, 950, "done"});
    uint64_t second = collector.newTrace();
    collector.record({second, "cache_lookup", base + 1000, 2, ""});
    collector.record({second, "request", base + 1000, 2, "cache"});

    std::string doc = collector.toJson({{"tool", "eipd"}});
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.back(), '\n');

    std::string error;
    auto probe = obs::parseJson(doc, &error);
    ASSERT_TRUE(probe.has_value()) << error;
    EXPECT_TRUE(obs::isServeTrace(*probe));

    auto serve = obs::parseServeTrace(doc, &error);
    ASSERT_TRUE(serve.has_value()) << error;
    EXPECT_EQ(serve->traces, 2u);
    EXPECT_EQ(serve->recorded, 7u);
    EXPECT_EQ(serve->retained, 7u);
    EXPECT_FALSE(serve->wrapped);
    EXPECT_EQ(serve->spanDropped, 0u);
    ASSERT_EQ(serve->spans.size(), 7u);

    // The child-relayed span was stamped with the parent's trace id.
    bool found_child = false;
    for (const obs::ServeSpan &span : serve->spans) {
        if (span.name == "measure") {
            EXPECT_EQ(span.traceId, first);
            EXPECT_EQ(span.dur, 700u);
            found_child = true;
        }
    }
    EXPECT_TRUE(found_child);

    std::string report = obs::serveReport(*serve);
    EXPECT_NE(report.find("request"), std::string::npos);
    EXPECT_NE(report.find("forked"), std::string::npos);
    EXPECT_NE(report.find("done"), std::string::npos);
    EXPECT_NE(report.find("cache"), std::string::npos);
}

TEST(SpanCollector, ReconcileServeMatchesCountersAndCatchesDrift)
{
    obs::SpanCollector collector(16);
    struct
    {
        const char *state;
        int n;
    } outcomes[] = {{"done", 3}, {"cache", 2}, {"crashed", 1},
                    {"failed", 1}, {"rejected", 2}};
    for (const auto &outcome : outcomes) {
        for (int i = 0; i < outcome.n; ++i) {
            uint64_t id = collector.newTrace();
            collector.record({id, "request", obs::monotonicMicros(), 1,
                              outcome.state});
        }
    }
    std::string error;
    auto serve = obs::parseServeTrace(collector.toJson(), &error);
    ASSERT_TRUE(serve.has_value()) << error;

    // failed counts crashes too, mirroring the daemon's failed_ counter.
    auto stats = obs::parseJson(
        R"({"counters":{"serve.served_cache":2,"serve.simulated":3,)"
        R"("serve.rejected_queue_full":2,"serve.worker_crashes":1,)"
        R"("serve.failed":2}})");
    ASSERT_TRUE(stats.has_value());
    EXPECT_TRUE(obs::reconcileServe(*serve, *stats).empty());

    auto drifted = obs::parseJson(
        R"({"counters":{"serve.served_cache":2,"serve.simulated":4,)"
        R"("serve.rejected_queue_full":2,"serve.worker_crashes":1,)"
        R"("serve.failed":2}})");
    ASSERT_TRUE(drifted.has_value());
    auto mismatches = obs::reconcileServe(*serve, *drifted);
    ASSERT_FALSE(mismatches.empty());
    EXPECT_NE(mismatches[0].find("serve.simulated"), std::string::npos);
}

TEST(SpanPreamble, RoundTripsAndSplitsTheWorkerPayload)
{
    std::vector<obs::SpanRecord> spans = {
        {0, "program_build", 100, 50, ""},
        {0, "measure", 150, 900, ""},
        {0, "serialize", 1050, 20, ""},
    };
    std::string preamble = obs::spanPreambleJson(spans);
    ASSERT_FALSE(preamble.empty());
    EXPECT_EQ(preamble.back(), '\n');
    EXPECT_NE(preamble.find("eip-span/v1"), std::string::npos);

    std::vector<obs::SpanRecord> parsed;
    ASSERT_TRUE(obs::parseSpanPreamble(preamble, parsed));
    ASSERT_EQ(parsed.size(), spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(parsed[i].name, spans[i].name);
        EXPECT_EQ(parsed[i].startUs, spans[i].startUs);
        EXPECT_EQ(parsed[i].durUs, spans[i].durUs);
    }
    std::vector<obs::SpanRecord> junk;
    EXPECT_FALSE(obs::parseSpanPreamble("{\"schema\":\"eip-run/v1\"}",
                                        junk));

    // Framing: artifact line + preamble line on one pipe payload.
    const std::string artifact = "{\"schema\":\"eip-run/v1\"}\n";
    std::string out_artifact, out_preamble;
    ASSERT_TRUE(obs::splitWorkerPayload(artifact + preamble, out_artifact,
                                        out_preamble));
    EXPECT_EQ(out_artifact, artifact); // keeps its trailing newline
    std::vector<obs::SpanRecord> reparsed;
    EXPECT_TRUE(obs::parseSpanPreamble(out_preamble, reparsed));

    // Artifact alone (spans off): no preamble, artifact unchanged.
    ASSERT_TRUE(obs::splitWorkerPayload(artifact, out_artifact,
                                        out_preamble));
    EXPECT_EQ(out_artifact, artifact);
    EXPECT_TRUE(out_preamble.empty());

    // A truncated payload (crashed child) has no newline at all.
    EXPECT_FALSE(obs::splitWorkerPayload("{\"schema\":\"eip-ru",
                                         out_artifact, out_preamble));
}

TEST(ServeProtocol, MetricsAndSpansOpsRoundTrip)
{
    for (serve::Request::Op op :
         {serve::Request::Op::Metrics, serve::Request::Op::Spans}) {
        serve::Request request;
        request.op = op;
        serve::Request parsed;
        std::string error;
        ASSERT_TRUE(serve::parseRequest(serve::requestJson(request), parsed,
                                        error))
            << serve::opName(op) << ": " << error;
        EXPECT_EQ(parsed.op, op);
    }
}

TEST(ForkedWorker, PropagatesChildSpansWithoutChangingArtifactBytes)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome with_spans =
        serve::runForkedJob(job, false);
    ASSERT_TRUE(with_spans.ok) << with_spans.error;
    ASSERT_FALSE(with_spans.childSpans.empty());

    // The child profiled its run phases and relayed them intact.
    std::vector<std::string> names;
    for (const obs::SpanRecord &span : with_spans.childSpans) {
        names.push_back(span.name);
        EXPECT_GT(span.startUs, 0u);
    }
    for (const char *expected :
         {"program_build", "warmup", "measure", "fill_drain", "serialize"})
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing child phase span '" << expected << "'";

    // Span collection must not perturb the artifact: byte-identical to
    // the in-process run (which is itself the golden-gated rendering).
    harness::ArtifactRun inProcess = harness::runJobArtifact(job);
    EXPECT_EQ(with_spans.artifact, inProcess.json);
}

TEST(ForkedWorker, CrashWithSpanCollectionStillFailsStructured)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome outcome = serve::runForkedJob(job, true);
    EXPECT_FALSE(outcome.ok);
    EXPECT_TRUE(outcome.crashed);
    EXPECT_NE(outcome.error.find("signal"), std::string::npos);
    // The child died before writing the preamble: no phantom spans.
    EXPECT_TRUE(outcome.childSpans.empty());
}

TEST(ServeDaemon, SpanTerminalsReconcileExactlyAgainstLiveCounters)
{
    LogCapture quiet(obs::LogLevel::Off); // crash/reject warns are expected
    serve::DaemonOptions options;
    options.socketPath = testSocket("reconcile");
    options.workers = 1;
    options.queueDepth = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // One of each outcome class. Cold first (terminal "done")...
    serve::SubmitOutcome outcome;
    ASSERT_TRUE(client.submit(tinyRequest(), outcome, &error)) << error;
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    serve::JobView view;
    ASSERT_TRUE(client.waitTerminal(outcome.job, view, 60.0, &error))
        << error;
    ASSERT_EQ(view.state, "done") << view.error;

    // ...then the same request warm (terminal "cache")...
    ASSERT_TRUE(client.submit(tinyRequest(), outcome, &error)) << error;
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    EXPECT_EQ(outcome.served, "cache");

    // ...a fault-injected run (terminal "crashed")...
    serve::RunRequest crash = tinyRequest();
    crash.injectCrash = true;
    ASSERT_TRUE(client.submit(crash, outcome, &error)) << error;
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    ASSERT_TRUE(client.waitTerminal(outcome.job, view, 60.0, &error))
        << error;
    EXPECT_EQ(view.state, "failed");

    // ...and a flood against the one-deep queue (terminal "rejected").
    std::vector<uint64_t> accepted;
    uint64_t rejected = 0;
    for (int i = 0; i < 8; ++i) {
        serve::RunRequest run = tinyRequest();
        run.instructions = 100000 + static_cast<uint64_t>(i);
        ASSERT_TRUE(client.submit(run, outcome, &error)) << error;
        if (outcome.accepted)
            accepted.push_back(outcome.job);
        else if (outcome.rejected)
            ++rejected;
    }
    EXPECT_GE(rejected, 1u);
    for (uint64_t job : accepted) {
        ASSERT_TRUE(client.waitTerminal(job, view, 120.0, &error)) << error;
        EXPECT_EQ(view.state, "done") << view.error;
    }

    // The spans op returns a serve trace whose terminal roll-ups match
    // the daemon's counters exactly — the flight recorder's core claim.
    std::string trace_doc;
    ASSERT_TRUE(client.spans(trace_doc, &error)) << error;
    auto serve_trace = obs::parseServeTrace(trace_doc, &error);
    ASSERT_TRUE(serve_trace.has_value()) << error;
    auto terminal = [&](const char *state) -> uint64_t {
        for (const auto &[name, count] : serve_trace->terminals)
            if (name == state)
                return count;
        return 0;
    };
    EXPECT_EQ(terminal("done"), 1u + accepted.size());
    EXPECT_EQ(terminal("cache"), 1u);
    EXPECT_EQ(terminal("crashed"), 1u);
    EXPECT_EQ(terminal("rejected"), rejected);

    std::string stats_doc;
    ASSERT_TRUE(client.stats(stats_doc, &error)) << error;
    auto stats = obs::parseJson(stats_doc, &error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_EQ(obs::reconcileServe(*serve_trace, *stats),
              std::vector<std::string>{});

    // The metrics op sees the same traffic through the rolling window,
    // and carries a scrapeable Prometheus page for the same counters.
    std::string metrics_doc, exposition;
    ASSERT_TRUE(client.metrics(metrics_doc, exposition, &error)) << error;
    auto metrics = obs::parseJson(metrics_doc, &error);
    ASSERT_TRUE(metrics.has_value()) << error;
    const obs::JsonValue *window = metrics->find("window");
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->find("cache_hits")->asU64(), 1u);
    EXPECT_EQ(window->find("simulated")->asU64(), 1u + accepted.size());
    EXPECT_EQ(window->find("failed")->asU64(), 1u);
    EXPECT_EQ(window->find("rejected")->asU64(), rejected);
    EXPECT_GT(window->find("qps")->number, 0.0);
    EXPECT_GT(window->find("p50_ms")->number, 0.0);
    EXPECT_NE(exposition.find("# TYPE eip_serve_requests counter"),
              std::string::npos);
    EXPECT_NE(exposition.find("eip_serve_worker_crashes 1"),
              std::string::npos);

    // Daemon-side percentile gauges ride the shared estimator.
    obs::CounterDump dump = daemon.statsDump();
    EXPECT_GT(dump.gauge("serve.request_wall_ms.p95").value(), 0.0);
    EXPECT_EQ(dump.counter("serve.request_wall_ms.count").value(),
              2u + accepted.size() + 1u);
    EXPECT_EQ(dump.counter("serve.spans.recorded").value(),
              serve_trace->recorded);

    daemon.stop();
}

} // namespace
