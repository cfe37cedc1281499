/**
 * @file
 * Rolling service metrics for the eipd daemon: a time-windowed view of
 * request throughput, cache hit ratio and latency percentiles over the
 * last N seconds, plus the Prometheus text-exposition renderer that
 * turns a CounterRegistry snapshot into something standard scrapers
 * ingest. The point-in-time counters answer "what happened since
 * start"; the window answers "what is happening now" — the quantity an
 * operator actually watches during a storm.
 */

#ifndef EIP_SERVE_METRICS_HH
#define EIP_SERVE_METRICS_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hh"

namespace eip::serve {

/**
 * Thread-safe rolling window of request outcomes. Each record carries
 * its monotonic timestamp; reads prune everything older than the
 * window before computing the view, so an idle daemon decays to zero
 * QPS instead of reporting its last storm forever.
 */
class MetricsWindow
{
  public:
    enum class Outcome
    {
        Cache,     ///< served from the result cache
        Simulated, ///< cold-simulated by a forked worker
        Failed,    ///< worker failure (crash included)
        Rejected,  ///< backpressured: admission queue full
    };

    explicit MetricsWindow(uint64_t window_seconds);

    /** Record one finished request. @p latency_ms is wall time from
     *  submit to terminal state (0 for rejected — they never ran). */
    void record(Outcome outcome, double latency_ms);

    /** One consistent snapshot of the window. */
    struct View
    {
        uint64_t windowSeconds = 0;
        uint64_t requests = 0; ///< everything recorded, rejected included
        uint64_t cacheHits = 0;
        uint64_t simulated = 0;
        uint64_t failed = 0;
        uint64_t rejected = 0;
        double qps = 0.0;      ///< requests / windowSeconds
        double hitRatio = 0.0; ///< cache / (cache + simulated)
        /** Latency percentiles over completed (non-rejected) requests,
         *  interpolated (eip::percentile, the type-7 estimator). */
        double p50Ms = 0.0;
        double p95Ms = 0.0;
        double p99Ms = 0.0;
    };

    View view();

  private:
    struct Sample
    {
        uint64_t atUs;
        Outcome outcome;
        double latencyMs;
    };

    void pruneLocked(uint64_t now_us);

    const uint64_t windowUs_;
    std::mutex mutex_;
    std::deque<Sample> samples_;
};

/**
 * Render a registry snapshot (plus free-form info labels) in the
 * Prometheus text exposition format. Dotted names become underscored
 * with an `eip_` prefix (serve.cache.hits -> eip_serve_cache_hits);
 * histograms export their _count and _sum.
 */
std::string prometheusText(
    const obs::CounterDump &dump,
    const std::vector<std::pair<std::string, std::string>> &info = {});

} // namespace eip::serve

#endif // EIP_SERVE_METRICS_HH
