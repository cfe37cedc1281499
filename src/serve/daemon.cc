#include "serve/daemon.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <utility>

#include "exec/program_cache.hh"
#include "harness/canonical.hh"
#include "obs/json.hh"
#include "obs/log.hh"
#include "obs/manifest.hh"
#include "prefetch/factory.hh"
#include "serve/socket_io.hh"
#include "serve/worker.hh"
#include "sim/config.hh"

namespace eip::serve {

namespace {

using Outcome = RequestLedger::Outcome;

/** Open a response document with the shared envelope fields. */
obs::JsonWriter
responseHead(Request::Op op, const char *status)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("schema", obs::kServeSchema);
    json.kv("kind", "response");
    json.kv("op", opName(op));
    json.kv("status", status);
    return json;
}

/** The "accepted" submit response. */
std::string
acceptedResponse(uint64_t id, const std::string &key, const char *served,
                 const char *state)
{
    obs::JsonWriter json = responseHead(Request::Op::Submit, "accepted");
    json.kv("job", id);
    json.kv("key", key);
    json.kv("served", served);
    json.kv("state", state);
    json.endObject();
    return json.str();
}

/** @p dump plus the ledger's since-start counters and its latency and
 *  window gauges, all read from the one @p view so a dump never mixes
 *  two moments. */
obs::CounterDump
withLedger(obs::CounterDump dump, const RequestLedger::View &view)
{
    const RequestLedger::Summary &all = view.sinceStart;
    const RequestLedger::Summary &win = view.window;
    // A crashed worker is one way a request fails: serve.failed counts
    // both, serve.worker_crashes the crashes alone.
    dump.counters.insert(
        dump.counters.end(),
        {{"serve.served_cache", all.of(Outcome::Cache)},
         {"serve.simulated", all.of(Outcome::Simulated)},
         {"serve.failed", all.of(Outcome::Failed) + all.of(Outcome::Crashed)},
         {"serve.worker_crashes", all.of(Outcome::Crashed)},
         {"serve.rejected_queue_full", all.of(Outcome::Rejected)},
         {"serve.request_wall_ms.count",
          all.requests - all.of(Outcome::Rejected)}});
    dump.gauges.insert(
        dump.gauges.end(),
        {{"serve.request_wall_ms.sum", view.latencySumMs},
         {"serve.request_wall_ms.p50", all.p50Ms},
         {"serve.request_wall_ms.p95", all.p95Ms},
         {"serve.request_wall_ms.p99", all.p99Ms},
         {"serve.window.seconds", static_cast<double>(view.windowSeconds)},
         {"serve.window.requests", static_cast<double>(win.requests)},
         {"serve.window.qps", view.qps},
         {"serve.window.hit_ratio", view.hitRatio},
         {"serve.window.p50_ms", win.p50Ms},
         {"serve.window.p95_ms", win.p95Ms},
         {"serve.window.p99_ms", win.p99Ms}});
    return dump;
}

} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), gitDescribe_(obs::buildGitDescribe()),
      queue_(options_.queueDepth), cache_(options_.cacheBytes),
      ledger_(options_.metricsWindowSeconds, obs::monotonicMicros()),
      spans_(options_.spanLimit)
{
    registry_.counter("serve.requests", [this] { return requests_.load(); });
    registry_.counter("serve.invalid", [this] { return invalid_.load(); });
    registry_.counter("serve.submits", [this] { return submits_.load(); });
    registry_.counter("serve.queue.high_water",
                      [this] { return queue_.highWater(); });
    registry_.gauge("serve.queue.depth", [this] {
        return static_cast<double>(queue_.depth());
    });
    registry_.gauge("serve.connections", [this] {
        std::lock_guard<std::mutex> lock(connMutex_);
        return static_cast<double>(
            std::count_if(conns_.begin(), conns_.end(),
                          [](const Connection &c) { return !c.done; }));
    });
    cache_.registerStats(registry_, "serve.cache");
    // The program cache only sees cold (forked) runs' parents — the
    // children bypass it — but its eviction stats still describe this
    // process, and the shared vocabulary keeps dashboards uniform.
    exec::ProgramCache::global().registerStats(registry_,
                                               "serve.program_cache");
    registry_.counter("serve.spans.recorded",
                      [this] { return spans_.recorded(); });
    registry_.counter("serve.spans.dropped",
                      [this] { return spans_.dropped(); });
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::start(std::string *error)
{
    EIP_ASSERT(!started_, "daemon started twice");
    listenFd_ = listenUnix(options_.socketPath, error);
    if (listenFd_ < 0)
        return false;
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workerThreads_.reserve(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i)
        workerThreads_.emplace_back([this] { workerLoop(); });
    EIP_LOG_INFO("eipd", "listening",
                 obs::LogField("socket", options_.socketPath),
                 obs::LogField("workers",
                               static_cast<uint64_t>(options_.workers)),
                 obs::LogField("queue_depth",
                               static_cast<uint64_t>(options_.queueDepth)),
                 obs::LogField("span_limit",
                               static_cast<uint64_t>(options_.spanLimit)));
    return true;
}

void
Daemon::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Daemon::waitStopRequested()
{
    std::unique_lock<std::mutex> lock(stopMutex_);
    stopCv_.wait(lock, [this] { return stopRequested_; });
}

void
Daemon::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    requestStop();

    // Retire the accept loop: shutdown() (not just close) is what
    // reliably wakes a thread blocked in accept() on Linux.
    ::shutdown(listenFd_, SHUT_RDWR);
    acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;

    // Hang up on live connections and collect their threads. No new
    // threads can appear once the accept loop is gone.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const Connection &conn : conns_)
            if (!conn.done)
                ::shutdown(conn.fd, SHUT_RDWR);
    }
    for (Connection &conn : conns_)
        conn.thread.join();

    // Drain the backlog through the workers, then retire them: close()
    // makes pop() return empty only once the queue is dry, so every
    // accepted job still completes.
    queue_.close();
    for (std::thread &thread : workerThreads_)
        thread.join();

    ::unlink(options_.socketPath.c_str());
    const RequestLedger::Summary all =
        ledger_.view(obs::monotonicMicros()).sinceStart;
    EIP_LOG_INFO("eipd", "stopped",
                 obs::LogField("requests", requests_.load()),
                 obs::LogField("simulated", all.of(Outcome::Simulated)),
                 obs::LogField("served_cache", all.of(Outcome::Cache)),
                 obs::LogField("failed", all.of(Outcome::Failed) +
                                             all.of(Outcome::Crashed)));
}

void
Daemon::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listen socket shut down: we are stopping
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        reapConnections();
        Connection &conn = conns_.emplace_back();
        conn.fd = fd;
        try {
            conn.thread = std::thread([this, &conn] { serveConnection(conn); });
        } catch (const std::system_error &e) {
            conns_.pop_back();
            ::close(fd);
            EIP_LOG_WARN("eipd", "connection_refused",
                         obs::LogField("error", e.what()));
        }
    }
}

void
Daemon::reapConnections()
{
    // A done thread only has its close() left to run, so joining it
    // under connMutex_ cannot wait on this lock.
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (!it->done) {
            ++it;
            continue;
        }
        it->thread.join();
        it = conns_.erase(it);
    }
}

void
Daemon::serveConnection(Connection &conn)
{
    const int fd = conn.fd;
    LineReader reader(fd, kMaxRequestLine);
    std::string line;
    while (reader.readLine(line)) {
        requests_.fetch_add(1);
        Request request;
        std::string parse_error;
        std::string response;
        bool is_shutdown = false;
        if (!parseRequest(line, request, parse_error)) {
            invalid_.fetch_add(1);
            // The op could not be parsed; answer under the envelope's
            // least-specific op so the client still gets a line back.
            response = invalidResponse(Request::Op::Stats, parse_error);
        } else {
            is_shutdown = request.op == Request::Op::Shutdown;
            response = dispatch(request);
        }
        if (!sendLine(fd, response))
            break;
        if (is_shutdown)
            break;
    }
    if (reader.overflowed()) {
        requests_.fetch_add(1);
        invalid_.fetch_add(1);
        sendLine(fd, invalidResponse(Request::Op::Stats,
                                     "request line longer than 1 MiB"));
    }
    // Mark the connection done before closing its fd: once closed the
    // number can be reused by another open, and stop() must never
    // shutdown() that.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conn.done = true;
    }
    ::close(fd);
}

void
Daemon::workerLoop()
{
    while (std::optional<Work> work = queue_.pop()) {
        {
            std::lock_guard<std::mutex> lock(jobsMutex_);
            jobs_[work->id].state = Job::State::Running;
        }

        const uint64_t fork_start_us = obs::monotonicMicros();
        WorkerOutcome outcome = runForkedJob(work->run, work->injectCrash);
        const uint64_t fork_end_us = obs::monotonicMicros();
        const double ms =
            static_cast<double>(fork_end_us - fork_start_us) / 1000.0;

        // queued: admission push to worker pickup; forked: the whole
        // child lifetime; the child's own phase spans ride the preamble.
        spans_.record({work->traceId, "queued", work->enqueueUs,
                       fork_start_us - work->enqueueUs, ""});
        spans_.record({work->traceId, "forked", fork_start_us,
                       fork_end_us - fork_start_us, ""});
        spans_.recordChild(work->traceId, outcome.childSpans);

        if (outcome.ok) {
            EIP_LOG_INFO("eipd", "job_done", obs::LogField("job", work->id),
                         obs::LogField("wall_ms", ms),
                         obs::LogField("trace", work->traceId));
        } else {
            EIP_LOG_WARN("eipd", "job_failed",
                         obs::LogField("job", work->id),
                         obs::LogField("crashed", outcome.crashed),
                         obs::LogField("error", outcome.error),
                         obs::LogField("trace", work->traceId));
        }

        // Into the cache before the job turns done, so a fetch after
        // "done" finds the bytes (unless newer artifacts evicted them).
        if (outcome.ok && !work->injectCrash)
            cache_.put(work->key, std::move(outcome.artifact));
        endRequest(*work,
                   outcome.ok        ? Outcome::Simulated
                   : outcome.crashed ? Outcome::Crashed
                                     : Outcome::Failed,
                   fork_end_us, ms, std::move(outcome.error));
    }
}

void
Daemon::endRequest(const Work &work, Outcome outcome,
                   uint64_t end_us, double wall_ms, std::string error)
{
    // The ledger and the root span first: a client that sees the
    // terminal state sees its accounting too. Indexed by Outcome.
    static constexpr const char *kSpanTerminals[] = {
        "cache", "done", "failed", "crashed", "rejected"};
    ledger_.record(outcome, wall_ms, end_us);
    spans_.record({work.traceId, "request", work.submitUs,
                   end_us - work.submitUs,
                   kSpanTerminals[static_cast<size_t>(outcome)]});
    if (outcome == Outcome::Rejected)
        return;

    std::lock_guard<std::mutex> lock(jobsMutex_);
    Job &job = jobs_[work.id];
    job.state = outcome == Outcome::Cache || outcome == Outcome::Simulated
                    ? Job::State::Done
                    : Job::State::Failed;
    job.servedFromCache = outcome == Outcome::Cache;
    job.key = work.key;
    job.error = std::move(error);
    terminalIds_.push_back(work.id);
    if (terminalIds_.size() > kTerminalRecords) {
        jobs_.erase(terminalIds_.front());
        terminalIds_.pop_front();
    }
}

const char *
Daemon::stateName(Job::State state)
{
    static constexpr const char *kNames[] = {"queued", "running", "done",
                                             "failed"};
    return kNames[static_cast<size_t>(state)];
}

std::string
Daemon::invalidResponse(Request::Op op, const std::string &error)
{
    obs::JsonWriter json = responseHead(op, "invalid");
    json.kv("error", error);
    json.endObject();
    return json.str();
}

std::string
Daemon::dispatch(const Request &request)
{
    switch (request.op) {
      case Request::Op::Submit:
        return handleSubmit(request.run);
      case Request::Op::Status:
      case Request::Op::Fetch:
        return handleJob(request.op, request.job);
      case Request::Op::Stats:
        return statsJson();
      case Request::Op::Metrics:
        return metricsJson();
      case Request::Op::Spans:
        return spansJson();
      case Request::Op::Shutdown: {
          requestStop();
          EIP_LOG_INFO("eipd", "shutdown_requested");
          obs::JsonWriter json = responseHead(request.op, "ok");
          json.endObject();
          return json.str();
      }
    }
    return invalidResponse(request.op, "unhandled op");
}

std::string
Daemon::handleSubmit(const RunRequest &run)
{
    submits_.fetch_add(1);

    trace::Workload workload;
    std::string invalid;
    if (!harness::findWorkload(run.workload, workload))
        invalid = "unknown workload '" + run.workload + "'";
    else if (!harness::knownConfigId(run.prefetcher))
        invalid = "unknown prefetcher '" + run.prefetcher + "'";
    else if (!prefetch::knownPrefetcherId(run.dataPrefetcher,
                                         prefetch::Side::L1d))
        invalid = "unknown data prefetcher '" + run.dataPrefetcher + "'";
    if (!invalid.empty()) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Submit, invalid);
    }

    Work work;
    work.run.workload = std::move(workload);
    work.run.spec = toRunSpec(run);
    work.key = harness::resultCacheKey(gitDescribe_, sim::SimConfig{},
                                       work.run.spec, work.run.workload);
    work.injectCrash = run.injectCrash;
    // A trace opens only once the request is semantically valid — the
    // invalid paths above never become request spans, so closed root
    // spans reconcile exactly against the outcome counters.
    work.submitUs = obs::monotonicMicros();
    work.traceId = spans_.newTrace();
    work.id = nextJobId_.fetch_add(1);

    // Cache probe first: a hit answers without consuming queue space or
    // forking a worker. Fault-injected jobs never touch the cache in
    // either direction — their artifacts are garbage by design.
    if (!work.injectCrash) {
        const bool hit = cache_.lookup(work.key);
        const uint64_t probe_end_us = obs::monotonicMicros();
        spans_.record({work.traceId, "cache_lookup", work.submitUs,
                       probe_end_us - work.submitUs, ""});
        if (hit) {
            endRequest(work, Outcome::Cache, probe_end_us,
                       static_cast<double>(probe_end_us - work.submitUs) /
                           1000.0);
            EIP_LOG_DEBUG("eipd", "cache_served",
                          obs::LogField("job", work.id),
                          obs::LogField("key", work.key),
                          obs::LogField("trace", work.traceId));
            return acceptedResponse(work.id, work.key, "cache", "done");
        }
    }

    work.enqueueUs = obs::monotonicMicros();
    const uint64_t id = work.id;
    const uint64_t trace_id = work.traceId;
    const std::string key = work.key;
    bool admitted;
    {
        // Pushed under jobsMutex_: the worker that pops this work marks
        // its record Running, so the record exists before it can look.
        std::lock_guard<std::mutex> lock(jobsMutex_);
        admitted = queue_.tryPush(std::move(work));
        if (admitted)
            jobs_[id].key = key;
    }
    if (!admitted) {
        endRequest(work, Outcome::Rejected,
                   obs::monotonicMicros(), 0.0);
        EIP_LOG_WARN("eipd", "rejected",
                     obs::LogField("workload", run.workload),
                     obs::LogField("queue_capacity",
                                   static_cast<uint64_t>(options_.queueDepth)),
                     obs::LogField("trace", work.traceId));
        obs::JsonWriter json = responseHead(Request::Op::Submit, "rejected");
        json.kv("error", "queue full");
        json.kv("queue_capacity", static_cast<uint64_t>(options_.queueDepth));
        json.endObject();
        return json.str();
    }

    EIP_LOG_DEBUG("eipd", "enqueued", obs::LogField("job", id),
                  obs::LogField("workload", run.workload),
                  obs::LogField("trace", trace_id));
    return acceptedResponse(id, key, "queue", "queued");
}

std::string
Daemon::handleJob(Request::Op op, uint64_t id)
{
    Job job;
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            invalid_.fetch_add(1);
            return invalidResponse(op, "unknown job " + std::to_string(id));
        }
        job = it->second;
    }
    // A fetch of a done job reads the bytes from their one home.
    std::optional<std::string> artifact;
    if (op == Request::Op::Fetch && job.state == Job::State::Done) {
        artifact = cache_.peek(job.key);
        if (!artifact) {
            invalid_.fetch_add(1);
            return invalidResponse(op, "artifact evicted; resubmit");
        }
    }
    obs::JsonWriter json = responseHead(op, "ok");
    json.kv("job", id);
    json.kv("state", stateName(job.state));
    json.kv("served_from_cache", job.servedFromCache);
    if (artifact) {
        json.kv("key", job.key);
        // As a JSON *string* value: escape/unescape round-trips exactly,
        // so the client recovers the artifact byte for byte (including
        // the trailing newline every artifact file carries).
        json.kv("artifact", *artifact);
    } else if (job.state == Job::State::Failed) {
        json.kv("error", job.error);
    }
    json.endObject();
    return json.str();
}

obs::CounterDump
Daemon::statsDump()
{
    return withLedger(registry_.dump(), ledger_.view(obs::monotonicMicros()));
}

std::string
Daemon::statsJson()
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("schema", obs::kServeSchema);
    json.kv("kind", "stats");
    json.kv("tool", "eipd");
    json.kv("git_describe", gitDescribe_);
    json.kv("workers", options_.workers);
    json.kv("queue_capacity", static_cast<uint64_t>(options_.queueDepth));
    json.kv("cache_capacity_bytes", options_.cacheBytes);
    json.kv("span_limit", static_cast<uint64_t>(options_.spanLimit));
    obs::writeCounterSections(json, statsDump());
    json.endObject();
    return json.str();
}

std::string
Daemon::metricsJson()
{
    const RequestLedger::View view = ledger_.view(obs::monotonicMicros());
    const RequestLedger::Summary &win = view.window;
    obs::JsonWriter json = responseHead(Request::Op::Metrics, "ok");
    json.key("window").beginObject();
    json.kv("seconds", view.windowSeconds);
    json.kv("requests", win.requests);
    json.kv("cache_hits", win.of(Outcome::Cache));
    json.kv("simulated", win.of(Outcome::Simulated));
    json.kv("failed", win.of(Outcome::Failed) + win.of(Outcome::Crashed));
    json.kv("rejected", win.of(Outcome::Rejected));
    json.kv("qps", view.qps);
    json.kv("hit_ratio", view.hitRatio);
    json.kv("p50_ms", win.p50Ms);
    json.kv("p95_ms", win.p95Ms);
    json.kv("p99_ms", win.p99Ms);
    json.endObject();
    // The Prometheus page rides the NDJSON protocol as one escaped
    // string value; eipc metrics unescapes it back to scrape text.
    json.kv("exposition",
            prometheusText(withLedger(registry_.dump(), view),
                           {{"tool", "eipd"},
                            {"git_describe", gitDescribe_}}));
    json.endObject();
    return json.str();
}

std::string
Daemon::spansJson()
{
    std::string doc = spans_.toJson({{"tool", "eipd"},
                                     {"git_describe", gitDescribe_}});
    // One line on the wire, like every other response.
    if (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    return doc;
}

} // namespace eip::serve
