/**
 * @file
 * Tests for the eipd job server (src/serve): the bounded admission
 * queue, the content-addressed result cache, the eip-serve/v1 protocol
 * round-trip, and the daemon end to end over a real Unix-domain socket
 * — cold simulate, warm cache-serve with byte-identical artifacts,
 * worker-crash isolation, and explicit backpressure.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/artifacts.hh"
#include "harness/canonical.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/result_cache.hh"
#include "serve/socket_io.hh"
#include "serve/worker.hh"
#include "sim/config.hh"
#include "trace/workloads.hh"

namespace {

using namespace eip;

/** Unique socket path per test so parallel ctest runs never collide. */
std::string
testSocket(const std::string &tag)
{
    return "/tmp/eip_serve_" + std::to_string(::getpid()) + "_" + tag +
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

TEST(BoundedQueue, FifoWithRejectionWhenFull)
{
    serve::BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3)); // full: explicit backpressure
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.highWater(), 2u);

    EXPECT_EQ(queue.pop().value(), 1);
    EXPECT_EQ(queue.pop().value(), 2);
    EXPECT_TRUE(queue.tryPush(4));
    EXPECT_EQ(queue.pop().value(), 4);
}

TEST(BoundedQueue, CloseDrainsBacklogThenReturnsEmpty)
{
    serve::BoundedQueue<int> queue(4);
    EXPECT_TRUE(queue.tryPush(7));
    queue.close();
    EXPECT_FALSE(queue.tryPush(8)); // closed counts as rejected too
    EXPECT_EQ(queue.pop().value(), 7);
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedConsumer)
{
    serve::BoundedQueue<int> queue(1);
    std::thread consumer([&queue] {
        EXPECT_FALSE(queue.pop().has_value());
    });
    queue.close();
    consumer.join();
}

TEST(ResultCache, HitMissAndByteWeightedEviction)
{
    serve::ResultCache cache(100);
    EXPECT_FALSE(cache.lookup("a"));
    cache.put("a", std::string(60, 'x'));
    cache.put("b", std::string(60, 'y'));
    // 120 bytes > 100: "a" (least recently served) is evicted.
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.lookup("a"));
    EXPECT_TRUE(cache.lookup("b"));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.bytes(), 60u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(ResultCache, PeekNeitherCountsNorRefreshes)
{
    serve::ResultCache cache(130);
    cache.put("a", std::string(60, 'x'));
    cache.put("b", std::string(60, 'y'));
    EXPECT_EQ(cache.peek("a").value(), std::string(60, 'x'));
    EXPECT_FALSE(cache.peek("c").has_value());
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    // "a" is still the least recently served: the peek did not touch it.
    cache.put("c", std::string(60, 'z'));
    EXPECT_FALSE(cache.peek("a").has_value());
    EXPECT_TRUE(cache.peek("b").has_value());
}

TEST(ResultCache, RegisterStatsUsesSharedEvictionVocabulary)
{
    serve::ResultCache cache(1000);
    cache.put("k", "artifact");
    obs::CounterRegistry registry;
    cache.registerStats(registry, "serve.cache");
    obs::CounterDump dump = registry.dump();
    EXPECT_EQ(dump.counter("serve.cache.hits").value(), 0u);
    EXPECT_EQ(dump.counter("serve.cache.misses").value(), 0u);
    EXPECT_EQ(dump.counter("serve.cache.evictions").value(), 0u);
    EXPECT_EQ(dump.counter("serve.cache.entries").value(), 1u);
    EXPECT_EQ(dump.counter("serve.cache.bytes").value(), 8u);
}

TEST(ServeProtocol, SubmitRoundTripsThroughJson)
{
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    request.run.workload = "crypto-1";
    request.run.prefetcher = "entangling-4k";
    request.run.dataPrefetcher = "stride";
    request.run.instructions = 123456;
    request.run.warmup = 7890;
    request.run.physical = true;
    request.run.sampleInterval = 1000;
    request.run.injectCrash = true;

    serve::Request parsed;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(serve::requestJson(request), parsed,
                                    error))
        << error;
    EXPECT_EQ(parsed.op, serve::Request::Op::Submit);
    EXPECT_EQ(parsed.run.workload, "crypto-1");
    EXPECT_EQ(parsed.run.prefetcher, "entangling-4k");
    EXPECT_EQ(parsed.run.dataPrefetcher, "stride");
    EXPECT_EQ(parsed.run.instructions, 123456u);
    EXPECT_EQ(parsed.run.warmup, 7890u);
    EXPECT_TRUE(parsed.run.physical);
    EXPECT_EQ(parsed.run.sampleInterval, 1000u);
    EXPECT_TRUE(parsed.run.injectCrash);
}

TEST(ServeProtocol, EveryOpRoundTrips)
{
    for (serve::Request::Op op :
         {serve::Request::Op::Submit, serve::Request::Op::Status,
          serve::Request::Op::Fetch, serve::Request::Op::Stats,
          serve::Request::Op::Metrics, serve::Request::Op::Spans,
          serve::Request::Op::Shutdown}) {
        serve::Request request;
        request.op = op;
        request.job = 42;
        serve::Request parsed;
        std::string error;
        ASSERT_TRUE(serve::parseRequest(serve::requestJson(request), parsed,
                                        error))
            << serve::opName(op) << ": " << error;
        EXPECT_EQ(parsed.op, op);
    }
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    serve::Request parsed;
    std::string error;
    // Not JSON at all.
    EXPECT_FALSE(serve::parseRequest("not json", parsed, error));
    // Wrong schema.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-run/v1","kind":"request","op":"stats"})", parsed,
        error));
    // Wrong kind.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"response","op":"stats"})",
        parsed, error));
    // Unknown op.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"reboot"})",
        parsed, error));
    // Status without a job id.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"status"})",
        parsed, error));
    // Submit with a zero instruction budget.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"submit",)"
        R"("run":{"workload":"tiny","instructions":0}})",
        parsed, error));
    // Submit with a mistyped field.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"submit",)"
        R"("run":{"workload":"tiny","instructions":"many"}})",
        parsed, error));
}

TEST(ServeProtocol, ToRunSpecForcesCounterCollection)
{
    serve::RunRequest run = tinyRequest();
    harness::RunSpec spec = serve::toRunSpec(run);
    EXPECT_TRUE(spec.collectCounters);
    EXPECT_EQ(spec.configId, run.prefetcher);
    EXPECT_EQ(spec.instructions, run.instructions);
    EXPECT_EQ(spec.tracer, nullptr);
}

TEST(ForkedWorker, DeliversByteIdenticalArtifact)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome outcome = serve::runForkedJob(job, false);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(outcome.crashed);

    harness::ArtifactRun inProcess = harness::runJobArtifact(job);
    EXPECT_EQ(outcome.artifact, inProcess.json);
}

TEST(ForkedWorker, InjectedCrashYieldsStructuredSignalError)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome outcome = serve::runForkedJob(job, true);
    EXPECT_FALSE(outcome.ok);
    EXPECT_TRUE(outcome.crashed);
    EXPECT_NE(outcome.error.find("signal"), std::string::npos);
    EXPECT_TRUE(outcome.artifact.empty());
}

TEST(ServeDaemon, ColdRunThenCacheServedByteIdentical)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("cold_warm");
    options.workers = 2;
    options.queueDepth = 8;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // Cold: must simulate.
    serve::SubmitOutcome cold;
    ASSERT_TRUE(client.submit(tinyRequest(), cold, &error)) << error;
    ASSERT_TRUE(cold.accepted) << cold.error;
    EXPECT_EQ(cold.served, "queue");
    EXPECT_EQ(cold.key.size(), 16u);

    serve::JobView coldView;
    ASSERT_TRUE(client.waitTerminal(cold.job, coldView, 60.0, &error))
        << error;
    ASSERT_EQ(coldView.state, "done");
    EXPECT_FALSE(coldView.servedFromCache);
    ASSERT_TRUE(client.fetch(cold.job, coldView, &error)) << error;
    ASSERT_FALSE(coldView.artifact.empty());

    // Warm: same request must come from the cache, byte for byte.
    serve::SubmitOutcome warm;
    ASSERT_TRUE(client.submit(tinyRequest(), warm, &error)) << error;
    ASSERT_TRUE(warm.accepted) << warm.error;
    EXPECT_EQ(warm.served, "cache");
    EXPECT_EQ(warm.state, "done");
    EXPECT_EQ(warm.key, cold.key);

    serve::JobView warmView;
    ASSERT_TRUE(client.fetch(warm.job, warmView, &error)) << error;
    EXPECT_TRUE(warmView.servedFromCache);
    EXPECT_EQ(warmView.artifact, coldView.artifact);

    // And both match a fresh in-process run of the same job exactly.
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());
    harness::ArtifactRun reference = harness::runJobArtifact(job);
    EXPECT_EQ(coldView.artifact, reference.json);

    // The daemon's own accounting agrees.
    obs::CounterDump stats = daemon.statsDump();
    EXPECT_EQ(stats.counter("serve.simulated").value(), 1u);
    EXPECT_EQ(stats.counter("serve.served_cache").value(), 1u);
    EXPECT_EQ(stats.counter("serve.cache.entries").value(), 1u);
    EXPECT_EQ(stats.counter("serve.failed").value(), 0u);
    // Two submit probes, one miss and one hit; the fetches read the
    // cache without counting a lookup.
    EXPECT_EQ(stats.counter("serve.cache.hits").value(), 1u);
    EXPECT_EQ(stats.counter("serve.cache.misses").value(), 1u);

    daemon.stop();
}

TEST(ServeDaemon, WindowGaugesReadOneViewPerDump)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("window_view");
    options.workers = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    serve::SubmitOutcome outcome;
    ASSERT_TRUE(client.submit(tinyRequest(), outcome, &error)) << error;
    serve::JobView view;
    ASSERT_TRUE(client.waitTerminal(outcome.job, view, 60.0, &error))
        << error;

    // Cache hits keep landing in the window while the metrics
    // responses are rendered: the window object and the exposition's
    // serve.window.* gauges must still come from one view.
    std::atomic<bool> done{false};
    std::thread traffic([&] {
        serve::Client hot;
        std::string err;
        if (!hot.connect(options.socketPath, &err))
            return;
        serve::SubmitOutcome hit;
        while (!done.load())
            hot.submit(tinyRequest(), hit, &err);
    });
    auto gauge = [](const std::string &page, const std::string &name) {
        const std::string key = "\neip_serve_window_" + name + " ";
        const size_t at = page.find(key);
        return at == std::string::npos
                   ? -1.0
                   : std::strtod(page.c_str() + at + key.size(), nullptr);
    };
    // Keep dumping until the traffic has landed a few dozen hits.
    uint64_t seen = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (int i = 0; (i < 40 || seen < 30) &&
                    std::chrono::steady_clock::now() < deadline;
         ++i) {
        // No ASSERT while the traffic thread runs: it must be joined.
        std::optional<obs::JsonValue> doc =
            obs::parseJson(daemon.metricsJson(), &error);
        const obs::JsonValue *window =
            doc.has_value() ? doc->find("window") : nullptr;
        const obs::JsonValue *exposition =
            doc.has_value() ? doc->find("exposition") : nullptr;
        if (window == nullptr || exposition == nullptr) {
            ADD_FAILURE() << "malformed metrics response: " << error;
            break;
        }
        const std::string &page = exposition->string;
        seen = window->find("requests")->asU64();
        EXPECT_EQ(gauge(page, "requests"), static_cast<double>(seen));
        for (const char *name :
             {"seconds", "qps", "hit_ratio", "p50_ms", "p95_ms", "p99_ms"})
            EXPECT_EQ(gauge(page, name), window->find(name)->number)
                << name;
    }
    done.store(true);
    traffic.join();
    EXPECT_GE(seen, 30u);

    daemon.stop();
}

TEST(ServeDaemon, StatsDocumentIsServeSchema)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("stats");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    std::string stats_line;
    ASSERT_TRUE(client.stats(stats_line, &error)) << error;

    std::optional<obs::JsonValue> doc = obs::parseJson(stats_line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->string, "eip-serve/v1");
    EXPECT_EQ(doc->find("kind")->string, "stats");
    EXPECT_EQ(doc->find("tool")->string, "eipd");
    ASSERT_NE(doc->find("counters"), nullptr);
    EXPECT_NE(doc->find("counters")->find("serve.requests"), nullptr);
    EXPECT_NE(doc->find("counters")->find("serve.cache.hits"), nullptr);
    EXPECT_NE(doc->find("counters")->find("serve.program_cache.hits"),
              nullptr);
    // Request latency: an exact count and sum (ms) from the ledger.
    EXPECT_NE(doc->find("counters")->find("serve.request_wall_ms.count"),
              nullptr);
    ASSERT_NE(doc->find("gauges"), nullptr);
    EXPECT_NE(doc->find("gauges")->find("serve.request_wall_ms.sum"),
              nullptr);

    daemon.stop();
}

TEST(ServeDaemon, InvalidRequestsGetStructuredErrors)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("invalid");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    serve::RunRequest bad_workload = tinyRequest();
    bad_workload.workload = "no-such-workload";
    serve::SubmitOutcome outcome;
    ASSERT_TRUE(client.submit(bad_workload, outcome, &error)) << error;
    EXPECT_FALSE(outcome.accepted);
    EXPECT_FALSE(outcome.rejected);
    EXPECT_NE(outcome.error.find("unknown workload"), std::string::npos);

    // Ids are exact: these once matched a family prefix and ran (and
    // were cached under their own key as) some other configuration.
    for (const char *id : {"no-such-prefetcher", "entangling-16k", "bbq",
                           "manatee", "stride"}) {
        serve::RunRequest bad_prefetcher = tinyRequest();
        bad_prefetcher.prefetcher = id;
        ASSERT_TRUE(client.submit(bad_prefetcher, outcome, &error)) << error;
        EXPECT_FALSE(outcome.accepted) << id;
        EXPECT_NE(outcome.error.find("unknown prefetcher"), std::string::npos)
            << id;
    }

    // The L1D takes only the data-side ids.
    for (const char *id : {"djolt", "entangling-4k", "ideal"}) {
        serve::RunRequest bad_data = tinyRequest();
        bad_data.dataPrefetcher = id;
        ASSERT_TRUE(client.submit(bad_data, outcome, &error)) << error;
        EXPECT_FALSE(outcome.accepted) << id;
        EXPECT_NE(outcome.error.find("unknown data prefetcher"),
                  std::string::npos)
            << id;
    }

    // Schedules that cannot run get an invalid answer from the same
    // rules sample::validateSpec enforces, never a worker panic.
    struct BadSchedule
    {
        const char *mode;
        uint64_t window;
        uint64_t period;
        const char *reason;
    };
    for (const BadSchedule &bad :
         {BadSchedule{"periodic", 0, 1000, "window must be positive"},
          BadSchedule{"periodic", 1000, 999, "period must be at least"},
          BadSchedule{"bogus", 1000, 1000, "mode must be full or periodic"}}) {
        serve::RunRequest schedule = tinyRequest();
        schedule.sampleMode = bad.mode;
        schedule.sampleWindow = bad.window;
        schedule.samplePeriod = bad.period;
        ASSERT_TRUE(client.submit(schedule, outcome, &error)) << error;
        EXPECT_FALSE(outcome.accepted) << bad.reason;
        EXPECT_FALSE(outcome.rejected) << bad.reason;
        EXPECT_NE(outcome.error.find(bad.reason), std::string::npos)
            << outcome.error;
    }
    std::string stats_line;
    ASSERT_TRUE(client.stats(stats_line, &error)) << error;

    serve::JobView view;
    EXPECT_FALSE(client.status(999, view, &error));
    EXPECT_NE(error.find("unknown job"), std::string::npos);

    obs::CounterDump stats = daemon.statsDump();
    EXPECT_GE(stats.counter("serve.invalid").value(), 13u);

    daemon.stop();
}

TEST(ServeDaemon, DeeplyNestedRequestLineIsRefused)
{
    // Requests are parsed on the connection thread, outside fork
    // isolation: the longest line the daemon reads, all '[', must get
    // an invalid answer, not overflow that thread's stack and take the
    // daemon down.
    serve::DaemonOptions options;
    options.socketPath = testSocket("nested");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    int fd = serve::connectUnix(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(serve::sendLine(fd, std::string(serve::kMaxRequestLine, '[')));
    serve::LineReader reader(fd);
    std::string response;
    ASSERT_TRUE(reader.readLine(response));
    ::close(fd);
    std::optional<obs::JsonValue> doc = obs::parseJson(response);
    ASSERT_TRUE(doc.has_value()) << response;
    EXPECT_EQ(doc->find("status")->string, "invalid");
    EXPECT_NE(response.find("nesting deeper than"), std::string::npos);

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    std::string stats_line;
    ASSERT_TRUE(client.stats(stats_line, &error)) << error;
    EXPECT_GE(daemon.statsDump().counter("serve.invalid").value(), 1u);

    daemon.stop();
}

TEST(ServeDaemon, OverlongRequestLineIsAnsweredThenHungUp)
{
    // A peer that never sends a newline must not make the daemon buffer
    // without bound: past the cap it answers invalid and hangs up.
    serve::DaemonOptions options;
    options.socketPath = testSocket("linecap");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    int fd = serve::connectUnix(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    // Without the cap the answer never comes; time out instead of
    // hanging the suite.
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    // 2 MiB, no newline. The daemon may hang up before all of it is
    // sent; MSG_NOSIGNAL turns that into an error return.
    const std::string flood(2u << 20, 'x');
    size_t sent = 0;
    while (sent < flood.size()) {
        ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
    serve::LineReader reader(fd);
    std::string response;
    ASSERT_TRUE(reader.readLine(response));
    EXPECT_FALSE(reader.readLine(response)); // and then it hung up
    ::close(fd);
    std::optional<obs::JsonValue> doc = obs::parseJson(response);
    ASSERT_TRUE(doc.has_value()) << response;
    EXPECT_EQ(doc->find("status")->string, "invalid");
    EXPECT_NE(response.find("request line longer than"), std::string::npos);

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    std::string stats_line;
    ASSERT_TRUE(client.stats(stats_line, &error)) << error;
    EXPECT_EQ(daemon.statsDump().counter("serve.invalid").value(), 1u);

    daemon.stop();
}

TEST(ServeDaemon, FetchOfEvictedArtifactAsksForResubmit)
{
    // Artifact bytes live only in the result cache. With room for one
    // artifact, the second cold run evicts the first one's bytes: its
    // job still reads done, but a fetch asks for a resubmit.
    serve::DaemonOptions options;
    options.socketPath = testSocket("evicted");
    options.workers = 1;
    options.cacheBytes = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    serve::RunRequest older = tinyRequest();
    serve::RunRequest newer = tinyRequest();
    newer.instructions += 1;
    uint64_t jobs[2];
    for (int i = 0; i < 2; ++i) {
        serve::SubmitOutcome outcome;
        ASSERT_TRUE(client.submit(i == 0 ? older : newer, outcome, &error))
            << error;
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        serve::JobView view;
        ASSERT_TRUE(client.waitTerminal(outcome.job, view, 60.0, &error))
            << error;
        ASSERT_EQ(view.state, "done") << view.error;
        jobs[i] = outcome.job;
    }

    serve::JobView view;
    EXPECT_FALSE(client.fetch(jobs[0], view, &error));
    EXPECT_EQ(error, "artifact evicted; resubmit");
    ASSERT_TRUE(client.status(jobs[0], view, &error)) << error;
    EXPECT_EQ(view.state, "done");

    ASSERT_TRUE(client.fetch(jobs[1], view, &error)) << error;
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(newer);
    EXPECT_EQ(view.artifact, harness::runJobArtifact(job).json);

    daemon.stop();
}

TEST(ServeDaemon, TerminalJobRecordsRetireOldestFirst)
{
    // The job table keeps 4096 terminal records, so a long-lived
    // daemon's memory does not grow with the requests it has served.
    serve::DaemonOptions options;
    options.socketPath = testSocket("retire");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    serve::SubmitOutcome cold;
    ASSERT_TRUE(client.submit(tinyRequest(), cold, &error)) << error;
    ASSERT_TRUE(cold.accepted) << cold.error;
    serve::JobView coldView;
    ASSERT_TRUE(client.waitTerminal(cold.job, coldView, 60.0, &error))
        << error;
    ASSERT_TRUE(client.fetch(cold.job, coldView, &error)) << error;

    // 1 cold + 4097 hot terminal records: the two oldest retire.
    std::vector<uint64_t> hot;
    for (int i = 0; i < 4097; ++i) {
        serve::SubmitOutcome outcome;
        ASSERT_TRUE(client.submit(tinyRequest(), outcome, &error)) << error;
        ASSERT_EQ(outcome.served, "cache");
        hot.push_back(outcome.job);
    }
    serve::JobView view;
    for (uint64_t retired : {cold.job, hot.front()}) {
        EXPECT_FALSE(client.status(retired, view, &error)) << retired;
        EXPECT_EQ(error, "unknown job " + std::to_string(retired));
    }
    EXPECT_TRUE(client.status(hot[1], view, &error)) << error;
    ASSERT_TRUE(client.fetch(hot.back(), view, &error)) << error;
    EXPECT_EQ(view.artifact, coldView.artifact);

    daemon.stop();
}

/** This process's virtual size in MB, from /proc/self/status. */
double
vmSizeMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stod(line.substr(7)) / 1024.0;
    return 0.0;
}

TEST(ServeDaemon, ClosedConnectionThreadsAreReaped)
{
    // Every connection gets a thread with its own stack; one that is
    // never joined keeps that mapping for the daemon's lifetime.
    serve::DaemonOptions options;
    options.socketPath = testSocket("reap");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Live connections; a daemon without the gauge counts as none.
    auto live = [&] {
        return daemon.statsDump().gauge("serve.connections").value_or(0.0);
    };
    // Each connection makes one stats call and closes; the next opens
    // once the daemon has finished with it, so threads overlap no more
    // than one at a time and glibc's per-thread malloc arenas (64 MB of
    // address space each) stop growing after the warm-up.
    auto open_and_close = [&](int connections) {
        for (int i = 0; i < connections; ++i) {
            {
                serve::Client client;
                ASSERT_TRUE(client.connect(options.socketPath, &error))
                    << error;
                std::string stats_line;
                ASSERT_TRUE(client.stats(stats_line, &error)) << error;
            }
            while (live() > 0.0)
                std::this_thread::yield();
        }
    };
    open_and_close(50);
    const double before_mb = vmSizeMb();
    open_and_close(500);
    EXPECT_LT(vmSizeMb() - before_mb, 64.0);

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    std::string metrics_json;
    std::string exposition;
    ASSERT_TRUE(client.metrics(metrics_json, exposition, &error)) << error;
    EXPECT_NE(exposition.find("serve_connections"), std::string::npos);
    EXPECT_LE(daemon.statsDump().gauge("serve.connections").value_or(2.0),
              1.0);

    daemon.stop();
}

TEST(ServeDaemon, CrashingWorkerFailsInIsolation)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("crash");
    options.workers = 2;
    options.queueDepth = 8;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // Distinct workloads so every job actually simulates (no cache
    // short-circuit), interleaved with the fault-injected one.
    std::vector<std::string> workloads = {"tiny", "crypto-1", "int-1"};
    std::vector<uint64_t> healthy;
    serve::SubmitOutcome outcome;
    serve::RunRequest crash = tinyRequest();
    crash.injectCrash = true;

    ASSERT_TRUE(client.submit(tinyRequest(), outcome, &error)) << error;
    // (cold tiny run; will also be in flight while the crash happens)
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    healthy.push_back(outcome.job);

    ASSERT_TRUE(client.submit(crash, outcome, &error)) << error;
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    const uint64_t crash_job = outcome.job;

    for (size_t i = 1; i < workloads.size(); ++i) {
        serve::RunRequest run = tinyRequest();
        run.workload = workloads[i];
        ASSERT_TRUE(client.submit(run, outcome, &error)) << error;
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        healthy.push_back(outcome.job);
    }

    // The crash job fails alone, with the signal in the error...
    serve::JobView view;
    ASSERT_TRUE(client.waitTerminal(crash_job, view, 60.0, &error)) << error;
    EXPECT_EQ(view.state, "failed");
    EXPECT_NE(view.error.find("signal"), std::string::npos);

    // ...every other in-flight/queued job still completes...
    for (uint64_t job : healthy) {
        ASSERT_TRUE(client.waitTerminal(job, view, 60.0, &error)) << error;
        EXPECT_EQ(view.state, "done") << "job " << job << ": " << view.error;
    }

    // ...and the daemon is still fully serving afterwards.
    serve::SubmitOutcome after;
    ASSERT_TRUE(client.submit(tinyRequest(), after, &error)) << error;
    ASSERT_TRUE(after.accepted) << after.error;
    EXPECT_EQ(after.served, "cache"); // the healthy tiny run seeded it

    obs::CounterDump stats = daemon.statsDump();
    EXPECT_EQ(stats.counter("serve.worker_crashes").value(), 1u);
    EXPECT_EQ(stats.counter("serve.failed").value(), 1u);
    EXPECT_EQ(stats.counter("serve.simulated").value(),
              static_cast<uint64_t>(workloads.size()));

    daemon.stop();
}

TEST(ServeDaemon, FullQueueRejectsWithBackpressure)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("backpressure");
    options.workers = 1;
    options.queueDepth = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // Flood: distinct requests (different budgets, so distinct cache
    // keys) against a queue of one. Submitting is microseconds, each
    // simulation is many milliseconds — rejections are guaranteed.
    std::vector<uint64_t> accepted;
    uint64_t rejected = 0;
    for (int i = 0; i < 8; ++i) {
        serve::RunRequest run = tinyRequest();
        run.instructions = 100000 + static_cast<uint64_t>(i);
        serve::SubmitOutcome outcome;
        ASSERT_TRUE(client.submit(run, outcome, &error)) << error;
        if (outcome.accepted)
            accepted.push_back(outcome.job);
        else if (outcome.rejected)
            ++rejected;
    }
    EXPECT_GE(rejected, 1u);
    EXPECT_GE(accepted.size(), 1u);

    // Accepted work is unaffected by the shed load.
    for (uint64_t job : accepted) {
        serve::JobView view;
        ASSERT_TRUE(client.waitTerminal(job, view, 120.0, &error)) << error;
        EXPECT_EQ(view.state, "done") << view.error;
    }

    obs::CounterDump stats = daemon.statsDump();
    EXPECT_EQ(stats.counter("serve.rejected_queue_full").value(), rejected);
    EXPECT_EQ(stats.counter("serve.simulated").value(), accepted.size());

    daemon.stop();
}

TEST(ServeDaemon, ShutdownOpStopsTheDaemon)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("shutdown");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(client.shutdown(&error)) << error;

    daemon.waitStopRequested(); // returns because the op fired
    daemon.stop();
    // The socket is gone: a fresh connect must fail.
    serve::Client after;
    EXPECT_FALSE(after.connect(options.socketPath, &error));
}

} // namespace
