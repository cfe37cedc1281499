/**
 * @file
 * eipd client: connects to a daemon socket and speaks the eip-serve/v1
 * protocol — submit, poll, fetch, stats, shutdown. The eipc CLI,
 * perfbench's serve-storm workload and the serve tests are all thin
 * layers over this class. Errors are return values, never fatals: a
 * client embedded in a bench must be able to observe a rejected
 * (backpressured) submit and retry it.
 */

#ifndef EIP_SERVE_CLIENT_HH
#define EIP_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include "obs/json.hh"
#include "serve/protocol.hh"
#include "serve/socket_io.hh"

namespace eip::serve {

/** Parsed submit response. */
struct SubmitOutcome
{
    bool accepted = false;
    /** Explicit backpressure: the daemon's queue was full. Retryable. */
    bool rejected = false;
    uint64_t job = 0;
    std::string key;    ///< content address of the request
    std::string served; ///< "cache" or "queue"
    std::string state;  ///< "done" (cache hit) or "queued"
    std::string error;  ///< invalid/rejected diagnostic
};

/** Parsed status/fetch response. */
struct JobView
{
    std::string state; ///< queued / running / done / failed
    bool servedFromCache = false;
    std::string key;
    std::string artifact; ///< complete eip-run/v1 document (fetch, done)
    std::string error;    ///< failure description (failed)
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to the daemon at @p path. */
    bool connect(const std::string &path, std::string *error);
    void close();
    bool connected() const { return fd_ >= 0; }

    /** Send one request line and parse the one response line. False on
     *  transport or JSON errors. */
    bool roundTrip(const Request &request, obs::JsonValue &response,
                   std::string *error);

    /** Submit @p run. True when the daemon answered at all (check
     *  @p out for accepted vs rejected vs invalid). */
    bool submit(const RunRequest &run, SubmitOutcome &out,
                std::string *error);

    bool status(uint64_t job, JobView &out, std::string *error);

    /** Fetch the job; when done, @p out.artifact holds the exact
     *  artifact bytes. */
    bool fetch(uint64_t job, JobView &out, std::string *error);

    /** The daemon's eip-serve/v1 stats document (raw line). */
    bool stats(std::string &stats_json, std::string *error);

    /** The metrics response: @p metrics_json gets the raw response
     *  line (window + exposition), @p exposition the decoded
     *  Prometheus text page. */
    bool metrics(std::string &metrics_json, std::string &exposition,
                 std::string *error);

    /** The daemon's eip-trace/v1 serve span document (raw line).
     *  False (with the daemon's diagnostic) on an error response. */
    bool spans(std::string &trace_json, std::string *error);

    bool shutdown(std::string *error);

    /** Poll status until the job reaches done/failed or
     *  @p timeout_seconds passes. False on timeout or transport error. */
    bool waitTerminal(uint64_t job, JobView &out, double timeout_seconds,
                      std::string *error);

  private:
    int fd_ = -1;
    /** One buffered reader for the connection's lifetime, so bytes the
     *  kernel delivered past a response's newline are never dropped. */
    LineReader reader_{-1};
};

} // namespace eip::serve

#endif // EIP_SERVE_CLIENT_HH
