/**
 * @file
 * The eip-serve/v1 wire vocabulary: newline-delimited JSON documents
 * over a local Unix-domain socket. Every request and response is one
 * line (obs::JsonWriter never emits raw newlines), so framing is a
 * buffered line read — no length prefixes, inspectable with socat.
 *
 * Requests carry the established eip-run/v1 run vocabulary (workload,
 * prefetcher id, instruction budgets); responses embed complete
 * eip-run/v1 artifacts as JSON string values so a fetched artifact is
 * byte-identical to the file eipsim --stats-json would have written
 * (timing fields excluded — the serving environment must not leak into
 * results).
 */

#ifndef EIP_SERVE_PROTOCOL_HH
#define EIP_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "harness/runner.hh"

namespace eip::serve {

/** The run vocabulary of one submit request (eip-run/v1 field names). */
struct RunRequest
{
    std::string workload = "tiny";
    std::string prefetcher = "none";
    std::string dataPrefetcher = "none";
    uint64_t instructions = 600000;
    uint64_t warmup = 300000;
    bool physical = false;
    uint64_t sampleInterval = 0;
    /** Sampled simulation: "full" (default) or "periodic" (SMARTS-style
     *  functional warming + detailed windows; window/period/seed as in
     *  the eipsim CLI). Result-affecting, so part of the cache key. */
    std::string sampleMode = "full";
    uint64_t sampleWindow = 0;
    uint64_t samplePeriod = 0;
    uint64_t sampleSeed = 0;
    uint64_t sampleWarm = 0;
    /** Fault injection for the crash-isolation tests: the forked worker
     *  writes a partial artifact and aborts mid-run. Never cached. */
    bool injectCrash = false;
};

/** One parsed client request. */
struct Request
{
    enum class Op
    {
        Submit,   ///< enqueue (or cache-serve) one run
        Status,   ///< job state by id
        Fetch,    ///< artifact by job id
        Stats,    ///< daemon counter dump (eip-serve/v1 stats document)
        Metrics,  ///< rolling window + Prometheus text exposition
        Spans,    ///< request-span trace (eip-trace/v1 serve document)
        Shutdown, ///< request daemon stop (queued work drains first)
    };

    Op op = Op::Stats;
    uint64_t job = 0; ///< Status/Fetch operand
    RunRequest run;   ///< Submit operand
};

/** Wire name of @p op ("submit", "status", ...). */
const char *opName(Request::Op op);

/** Inverse of opName; false on unknown names. */
bool opFromName(const std::string &name, Request::Op &out);

/** Render @p request as one eip-serve/v1 request line (no newline). */
std::string requestJson(const Request &request);

/**
 * Parse one request line. Returns false with a diagnostic in @p error
 * on malformed JSON, wrong schema/kind, unknown ops, or missing/
 * mistyped fields; field-level semantic validation (does the workload
 * exist, is the prefetcher id known) is the daemon's job.
 */
bool parseRequest(const std::string &line, Request &out, std::string &error);

/** The RunSpec a daemon executes for @p run. Counter collection is
 *  forced on (an artifact without counters has no content), the tracer
 *  stays null (single-run facility the protocol does not expose). */
harness::RunSpec toRunSpec(const RunRequest &run);

} // namespace eip::serve

#endif // EIP_SERVE_PROTOCOL_HH
