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

/** Cache-geometry config ids runOne accepts that are not prefetcher
 *  ids (see RunSpec::configId). */
bool
isCacheConfigId(const std::string &id)
{
    return id == "ideal" || id == "l1i-64kb" || id == "l1i-96kb";
}

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

} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), gitDescribe_(obs::buildGitDescribe()),
      queue_(options_.queueDepth), cache_(options_.cacheBytes),
      metrics_(options_.metricsWindowSeconds)
{
    if (options_.spanLimit > 0)
        spans_ = std::make_unique<obs::SpanCollector>(options_.spanLimit);
    registry_.counter("serve.requests", [this] { return requests_.load(); });
    registry_.counter("serve.invalid", [this] { return invalid_.load(); });
    registry_.counter("serve.submits", [this] { return submits_.load(); });
    registry_.counter("serve.rejected_queue_full",
                      [this] { return queue_.rejected(); });
    registry_.counter("serve.served_cache",
                      [this] { return servedCache_.load(); });
    registry_.counter("serve.simulated", [this] { return simulated_.load(); });
    registry_.counter("serve.failed", [this] { return failed_.load(); });
    registry_.counter("serve.worker_crashes",
                      [this] { return workerCrashes_.load(); });
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
    registry_.histogram("serve.request_wall_ms", &requestWallMs_);
    // Interpolated request-latency percentiles (util::Histogram's
    // type-7 estimator — the same math the manifest-side percentile
    // helper uses, so daemon and manifest numbers agree). The closures
    // re-enter histMutex_ from inside statsDump's dump(); it is
    // recursive for exactly that.
    for (const auto &[name, q] :
         {std::pair<const char *, double>{"serve.request_wall_ms.p50", 0.50},
          {"serve.request_wall_ms.p95", 0.95},
          {"serve.request_wall_ms.p99", 0.99}}) {
        const double quantile = q;
        registry_.gauge(name, [this, quantile] {
            std::lock_guard<std::recursive_mutex> lock(histMutex_);
            return requestWallMs_.percentile(quantile);
        });
    }
    // The rolling window: what the daemon is doing *now* (last N
    // seconds), as opposed to the since-start counters above.
    registry_.gauge("serve.window.seconds", [this] {
        return static_cast<double>(metrics_.windowSeconds());
    });
    registry_.gauge("serve.window.requests", [this] {
        return static_cast<double>(metrics_.view().requests);
    });
    registry_.gauge("serve.window.qps",
                    [this] { return metrics_.view().qps; });
    registry_.gauge("serve.window.hit_ratio",
                    [this] { return metrics_.view().hitRatio; });
    registry_.gauge("serve.window.p50_ms",
                    [this] { return metrics_.view().p50Ms; });
    registry_.gauge("serve.window.p95_ms",
                    [this] { return metrics_.view().p95Ms; });
    registry_.gauge("serve.window.p99_ms",
                    [this] { return metrics_.view().p99Ms; });
    if (spans_ != nullptr) {
        registry_.counter("serve.spans.recorded",
                          [this] { return spans_->recorded(); });
        registry_.counter("serve.spans.dropped",
                          [this] { return spans_->dropped(); });
    }
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::start(std::string *error)
{
    EIP_ASSERT(!started_, "daemon started twice");
    // Warm the workload catalogue before accepting traffic: it is
    // expensive to build (harness::findWorkload docs), every submit
    // validates against it, and building it here means forked workers
    // inherit it ready-made.
    trace::Workload ignore;
    harness::findWorkload("tiny", ignore);
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
    EIP_LOG_INFO("eipd", "stopped",
                 obs::LogField("requests", requests_.load()),
                 obs::LogField("simulated", simulated_.load()),
                 obs::LogField("served_cache", servedCache_.load()),
                 obs::LogField("failed", failed_.load()));
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
    LineReader reader(fd);
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
    while (std::optional<uint64_t> id = queue_.pop()) {
        harness::RunJob run;
        std::string key;
        bool inject_crash = false;
        uint64_t trace_id = 0;
        uint64_t submit_us = 0;
        uint64_t enqueue_us = 0;
        {
            std::lock_guard<std::mutex> lock(jobsMutex_);
            auto it = jobs_.find(*id);
            if (it == jobs_.end())
                continue;
            it->second.state = Job::State::Running;
            run = it->second.run;
            key = it->second.key;
            inject_crash = it->second.injectCrash;
            trace_id = it->second.traceId;
            submit_us = it->second.submitUs;
            enqueue_us = it->second.enqueueUs;
        }

        const uint64_t fork_start_us = obs::monotonicMicros();
        WorkerOutcome outcome =
            runForkedJob(run, inject_crash, spans_ != nullptr);
        const uint64_t fork_end_us = obs::monotonicMicros();
        double ms =
            static_cast<double>(fork_end_us - fork_start_us) / 1000.0;
        {
            std::lock_guard<std::recursive_mutex> lock(histMutex_);
            requestWallMs_.record(static_cast<size_t>(ms));
        }

        if (outcome.ok && !inject_crash)
            cache_.put(key, outcome.artifact);

        if (outcome.ok)
            simulated_.fetch_add(1);
        else
            failed_.fetch_add(1);
        if (outcome.crashed)
            workerCrashes_.fetch_add(1);

        metrics_.record(outcome.ok ? MetricsWindow::Outcome::Simulated
                                   : MetricsWindow::Outcome::Failed,
                        ms);

        if (spans_ != nullptr) {
            // queued: admission push to worker pickup; forked: the
            // whole child lifetime; the child's own phase spans ride
            // the preamble; request: submit to terminal state.
            spans_->record({trace_id, "queued", enqueue_us,
                            fork_start_us - enqueue_us, ""});
            spans_->record({trace_id, "forked", fork_start_us,
                            fork_end_us - fork_start_us, ""});
            spans_->recordChild(trace_id, outcome.childSpans);
            const char *terminal = outcome.ok        ? "done"
                                   : outcome.crashed ? "crashed"
                                                     : "failed";
            spans_->record({trace_id, "request", submit_us,
                            fork_end_us - submit_us, terminal});
        }

        if (outcome.ok) {
            EIP_LOG_INFO("eipd", "job_done", obs::LogField("job", *id),
                         obs::LogField("wall_ms", ms),
                         obs::LogField("trace", trace_id));
        } else {
            EIP_LOG_WARN("eipd", "job_failed", obs::LogField("job", *id),
                         obs::LogField("crashed", outcome.crashed),
                         obs::LogField("error", outcome.error),
                         obs::LogField("trace", trace_id));
        }

        std::lock_guard<std::mutex> lock(jobsMutex_);
        Job &job = jobs_[*id];
        if (outcome.ok) {
            job.state = Job::State::Done;
            job.artifact = std::move(outcome.artifact);
        } else {
            job.state = Job::State::Failed;
            job.error = std::move(outcome.error);
        }
    }
}

const char *
Daemon::stateName(Job::State state)
{
    switch (state) {
      case Job::State::Queued: return "queued";
      case Job::State::Running: return "running";
      case Job::State::Done: return "done";
      case Job::State::Failed: return "failed";
    }
    return "unknown";
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
        return handleStatus(request.job);
      case Request::Op::Fetch:
        return handleFetch(request.job);
      case Request::Op::Stats:
        return statsJson();
      case Request::Op::Metrics:
        return metricsJson();
      case Request::Op::Spans: {
          if (spans_ == nullptr)
              return invalidResponse(request.op,
                                     "span collection is disabled "
                                     "(daemon started with --span-limit 0)");
          return spansJson();
      }
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
    if (!harness::findWorkload(run.workload, workload)) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Submit,
                               "unknown workload '" + run.workload + "'");
    }
    if (!isCacheConfigId(run.prefetcher) &&
        !prefetch::knownPrefetcherId(run.prefetcher)) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Submit,
                               "unknown prefetcher '" + run.prefetcher +
                                   "'");
    }
    if (!prefetch::knownPrefetcherId(run.dataPrefetcher)) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Submit,
                               "unknown data prefetcher '" +
                                   run.dataPrefetcher + "'");
    }

    harness::RunSpec spec = toRunSpec(run);
    const std::string key = harness::resultCacheKey(
        gitDescribe_, sim::SimConfig{}, spec, workload);

    // A trace opens only once the request is semantically valid — the
    // invalid paths above never become request spans, so closed root
    // spans reconcile exactly against the outcome counters.
    const uint64_t submit_us = obs::monotonicMicros();
    const uint64_t trace_id = spans_ != nullptr ? spans_->newTrace() : 0;

    // Cache probe first: a hit answers without consuming queue space or
    // forking a worker. Fault-injected jobs never touch the cache in
    // either direction — their artifacts are garbage by design.
    if (!run.injectCrash) {
        std::optional<std::string> artifact = cache_.get(key);
        const uint64_t probe_end_us = obs::monotonicMicros();
        if (spans_ != nullptr)
            spans_->record({trace_id, "cache_lookup", submit_us,
                            probe_end_us - submit_us, ""});
        if (artifact) {
            servedCache_.fetch_add(1);
            const double ms =
                static_cast<double>(probe_end_us - submit_us) / 1000.0;
            metrics_.record(MetricsWindow::Outcome::Cache, ms);
            {
                std::lock_guard<std::recursive_mutex> lock(histMutex_);
                requestWallMs_.record(static_cast<size_t>(ms));
            }
            if (spans_ != nullptr)
                spans_->record({trace_id, "request", submit_us,
                                probe_end_us - submit_us, "cache"});
            uint64_t id;
            {
                std::lock_guard<std::mutex> lock(jobsMutex_);
                id = nextJobId_++;
                Job &job = jobs_[id];
                job.key = key;
                job.traceId = trace_id;
                job.submitUs = submit_us;
                job.state = Job::State::Done;
                job.servedFromCache = true;
                job.artifact = std::move(*artifact);
            }
            EIP_LOG_DEBUG("eipd", "cache_served",
                          obs::LogField("job", id),
                          obs::LogField("key", key),
                          obs::LogField("trace", trace_id));
            obs::JsonWriter json = responseHead(Request::Op::Submit,
                                                "accepted");
            json.kv("job", id);
            json.kv("key", key);
            json.kv("served", "cache");
            json.kv("state", "done");
            json.endObject();
            return json.str();
        }
    }

    uint64_t id;
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        id = nextJobId_++;
        Job &job = jobs_[id];
        job.run.workload = workload;
        job.run.spec = spec;
        job.key = key;
        job.injectCrash = run.injectCrash;
        job.traceId = trace_id;
        job.submitUs = submit_us;
        // Stamped before tryPush: a worker may pop the id the moment
        // the push lands, so the job record must already be complete.
        job.enqueueUs = obs::monotonicMicros();
    }
    if (!queue_.tryPush(id)) {
        {
            std::lock_guard<std::mutex> lock(jobsMutex_);
            jobs_.erase(id);
        }
        metrics_.record(MetricsWindow::Outcome::Rejected, 0.0);
        if (spans_ != nullptr)
            spans_->record({trace_id, "request", submit_us,
                            obs::monotonicMicros() - submit_us,
                            "rejected"});
        EIP_LOG_WARN("eipd", "rejected",
                     obs::LogField("workload", run.workload),
                     obs::LogField("queue_capacity",
                                   static_cast<uint64_t>(
                                       options_.queueDepth)),
                     obs::LogField("trace", trace_id));
        obs::JsonWriter json = responseHead(Request::Op::Submit,
                                            "rejected");
        json.kv("error", "queue full");
        json.kv("queue_capacity", static_cast<uint64_t>(
                                      options_.queueDepth));
        json.endObject();
        return json.str();
    }

    EIP_LOG_DEBUG("eipd", "enqueued", obs::LogField("job", id),
                  obs::LogField("workload", run.workload),
                  obs::LogField("trace", trace_id));
    obs::JsonWriter json = responseHead(Request::Op::Submit, "accepted");
    json.kv("job", id);
    json.kv("key", key);
    json.kv("served", "queue");
    json.kv("state", "queued");
    json.endObject();
    return json.str();
}

std::string
Daemon::handleStatus(uint64_t id)
{
    std::lock_guard<std::mutex> lock(jobsMutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Status,
                               "unknown job " + std::to_string(id));
    }
    const Job &job = it->second;
    obs::JsonWriter json = responseHead(Request::Op::Status, "ok");
    json.kv("job", id);
    json.kv("state", stateName(job.state));
    json.kv("served_from_cache", job.servedFromCache);
    if (job.state == Job::State::Failed)
        json.kv("error", job.error);
    json.endObject();
    return json.str();
}

std::string
Daemon::handleFetch(uint64_t id)
{
    std::lock_guard<std::mutex> lock(jobsMutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Fetch,
                               "unknown job " + std::to_string(id));
    }
    const Job &job = it->second;
    obs::JsonWriter json = responseHead(Request::Op::Fetch, "ok");
    json.kv("job", id);
    json.kv("state", stateName(job.state));
    json.kv("served_from_cache", job.servedFromCache);
    switch (job.state) {
      case Job::State::Done:
        json.kv("key", job.key);
        // As a JSON *string* value: escape/unescape round-trips exactly,
        // so the client recovers the artifact byte for byte (including
        // the trailing newline every artifact file carries).
        json.kv("artifact", job.artifact);
        break;
      case Job::State::Failed:
        json.kv("error", job.error);
        break;
      case Job::State::Queued:
      case Job::State::Running:
        break;
    }
    json.endObject();
    return json.str();
}

obs::CounterDump
Daemon::statsDump()
{
    std::lock_guard<std::recursive_mutex> lock(histMutex_);
    return registry_.dump();
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
    const MetricsWindow::View view = metrics_.view();
    obs::JsonWriter json = responseHead(Request::Op::Metrics, "ok");
    json.key("window").beginObject();
    json.kv("seconds", view.windowSeconds);
    json.kv("requests", view.requests);
    json.kv("cache_hits", view.cacheHits);
    json.kv("simulated", view.simulated);
    json.kv("failed", view.failed);
    json.kv("rejected", view.rejected);
    json.kv("qps", view.qps);
    json.kv("hit_ratio", view.hitRatio);
    json.kv("p50_ms", view.p50Ms);
    json.kv("p95_ms", view.p95Ms);
    json.kv("p99_ms", view.p99Ms);
    json.endObject();
    // The Prometheus page rides the NDJSON protocol as one escaped
    // string value; eipc metrics unescapes it back to scrape text.
    json.kv("exposition",
            prometheusText(statsDump(),
                           {{"tool", "eipd"},
                            {"git_describe", gitDescribe_}}));
    json.endObject();
    return json.str();
}

std::string
Daemon::spansJson()
{
    if (spans_ == nullptr)
        return {};
    std::string doc = spans_->toJson({{"tool", "eipd"},
                                      {"git_describe", gitDescribe_}});
    // One line on the wire, like every other response.
    if (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    return doc;
}

} // namespace eip::serve
