/**
 * @file
 * The eipd job server: simulation as a service over a local Unix-domain
 * socket. One accept thread spawns a thread per connection and joins
 * those of connections that have closed; parsed submit requests pass
 * through a bounded admission queue (full queue = explicit "rejected"
 * response, the client's cue to back off) to a small pool of dispatcher
 * threads, each of which forks the actual simulation into a throwaway
 * child process (src/serve/worker.hh) so a crashing run can never take
 * the daemon down.
 *
 * Completed artifacts land in a content-addressed ResultCache keyed by
 * harness::resultCacheKey, and live only there: a job record keeps the
 * key, fetch reads the bytes by it, and terminal records retire after
 * kTerminalRecords newer ones. A resubmitted request is answered from
 * the cache without forking, byte-identical to the cold run.
 * Everything the daemon does is observable: cache and queue counters
 * live in an obs::CounterRegistry, every finished request is recorded
 * once in a RequestLedger, and the "stats" op serves both as one
 * eip-serve/v1 document.
 */

#ifndef EIP_SERVE_DAEMON_HH
#define EIP_SERVE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/runner.hh"
#include "obs/registry.hh"
#include "obs/span.hh"
#include "serve/metrics.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/result_cache.hh"

namespace eip::serve {

struct DaemonOptions
{
    std::string socketPath;
    /** Dispatcher threads = maximum concurrently forked simulations. */
    unsigned workers = 2;
    /** Admission queue capacity; pushes beyond it are rejected. */
    size_t queueDepth = 64;
    /** Result-cache budget in artifact bytes. */
    uint64_t cacheBytes = 64ull << 20;
    /** Request-span ring capacity (positive). */
    size_t spanLimit = 4096;
    /** Rolling metrics window length for the "metrics" op. */
    uint64_t metricsWindowSeconds = 60;
};

class Daemon
{
  public:
    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind the socket and start the accept/worker threads. False with
     *  a diagnostic on socket errors (path too long, bind refused). */
    bool start(std::string *error);

    /** Note a stop request (shutdown op, signal): wakes the thread in
     *  waitStopRequested(). Safe from any thread; does not tear down. */
    void requestStop();

    /** Block until requestStop() — the owning thread's idle wait. */
    void waitStopRequested();

    /** Full teardown: retire the accept loop, hang up connections,
     *  drain queued jobs through the workers, join everything, unlink
     *  the socket. Idempotent. */
    void stop();

    /** Snapshot of every registered counter (tests, benches). */
    obs::CounterDump statsDump();

    /** The eip-serve/v1 stats document (one line, no newline). */
    std::string statsJson();

    /** The "metrics" response: window view + Prometheus exposition. */
    std::string metricsJson();

    /** The eip-trace/v1 serve span document (one line, no trailing
     *  newline). */
    std::string spansJson();

  private:
    /** Terminal job records kept for status/fetch, retired FIFO in
     *  completion order; an older id answers "unknown job". */
    static constexpr size_t kTerminalRecords = 4096;

    /** One admitted submit: everything a worker needs to run it and
     *  end the request. Travels through the admission queue. */
    struct Work
    {
        uint64_t id = 0;
        harness::RunJob run;
        std::string key;
        bool injectCrash = false;
        uint64_t traceId = 0;   ///< span trace id
        uint64_t submitUs = 0;  ///< request-received monotonic time
        uint64_t enqueueUs = 0; ///< admission-queue push time
    };

    /** What status and fetch report about one submit. The artifact
     *  bytes live only in cache_, under key. */
    struct Job
    {
        enum class State
        {
            Queued,
            Running,
            Done,
            Failed,
        } state = State::Queued;
        bool servedFromCache = false;
        std::string key;
        std::string error;
    };

    /** One client connection and the thread serving it. */
    struct Connection
    {
        int fd = -1;
        bool done = false; ///< serving finished; the fd is closed or closing
        std::thread thread;
    };

    static const char *stateName(Job::State state);

    void acceptLoop();
    void reapConnections();
    void serveConnection(Connection &conn);
    void workerLoop();
    void endRequest(const Work &work, RequestLedger::Outcome outcome,
                    uint64_t end_us, double wall_ms, std::string error = {});

    std::string dispatch(const Request &request);
    std::string handleSubmit(const RunRequest &run);
    /** The status op, or the fetch op (which adds a done job's
     *  artifact, read from cache_). */
    std::string handleJob(Request::Op op, uint64_t id);
    std::string invalidResponse(Request::Op op, const std::string &error);

    DaemonOptions options_;
    std::string gitDescribe_;

    int listenFd_ = -1;
    bool started_ = false;
    bool stopped_ = false;

    std::thread acceptThread_;
    std::vector<std::thread> workerThreads_;
    std::mutex connMutex_;
    std::list<Connection> conns_; ///< guarded by connMutex_

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;

    BoundedQueue<Work> queue_;
    ResultCache cache_;

    std::mutex jobsMutex_;
    std::unordered_map<uint64_t, Job> jobs_;
    std::deque<uint64_t> terminalIds_; ///< retirement order of jobs_
    std::atomic<uint64_t> nextJobId_{1};

    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> invalid_{0};
    std::atomic<uint64_t> submits_{0};

    RequestLedger ledger_;
    obs::SpanCollector spans_;

    obs::CounterRegistry registry_;
};

} // namespace eip::serve

#endif // EIP_SERVE_DAEMON_HH
