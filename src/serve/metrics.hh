/**
 * @file
 * Service metrics for the eipd daemon: the one ledger every finished
 * request is recorded in, plus the Prometheus text-exposition renderer
 * that turns a CounterRegistry snapshot into something standard
 * scrapers ingest. The ledger answers both "what happened since start"
 * (exact outcome counts, latency sum and percentiles) and "what is
 * happening now" (the same figures over the last N seconds — the
 * quantity an operator actually watches during a storm).
 */

#ifndef EIP_SERVE_METRICS_HH
#define EIP_SERVE_METRICS_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hh"
#include "util/histogram.hh"

namespace eip::serve {

/**
 * Thread-safe record of every finished request, in memory that depends
 * on neither the request rate nor the window length. Since-start
 * outcome counts are exact. The window is a ring of kSlots time slots,
 * each 1/kSlots of the window long, so its edges are exact to one slot.
 * Latency is bucketed log-linearly in microseconds (16 sub-buckets per
 * power of two, 1 us to ~67 s; longer saturates), so every percentile
 * is exact to one bucket: within 1/16 of the value it estimates.
 */
class RequestLedger
{
  public:
    enum class Outcome
    {
        Cache,     ///< served from the result cache
        Simulated, ///< cold-simulated by a forked worker
        Failed,    ///< worker failure other than a crash
        Crashed,   ///< worker killed by a signal
        Rejected,  ///< backpressured: admission queue full
    };
    static constexpr size_t kOutcomes = 5;
    static constexpr size_t kSlots = 60;

    /** An empty ledger whose window is @p window_seconds long (0 reads
     *  as 1), built at monotonic time @p now_us. */
    RequestLedger(uint64_t window_seconds, uint64_t now_us);

    /** Record one finished request at monotonic time @p now_us.
     *  @p latency_ms is wall time from submit to terminal state;
     *  rejected requests never ran and count without a latency. */
    void record(Outcome outcome, double latency_ms, uint64_t now_us);

    /** Outcome counts and latency percentiles over a set of requests. */
    struct Summary
    {
        std::array<uint64_t, kOutcomes> count{}; ///< indexed by Outcome
        uint64_t requests = 0; ///< everything recorded, rejected included
        /** Over completed (non-rejected) requests: the type-7 estimator
         *  on bucket indices, mapped back to milliseconds. */
        double p50Ms = 0.0;
        double p95Ms = 0.0;
        double p99Ms = 0.0;

        uint64_t of(Outcome outcome) const
        {
            return count[static_cast<size_t>(outcome)];
        }
    };

    /** One consistent snapshot of the ledger. */
    struct View
    {
        Summary sinceStart;
        double latencySumMs = 0.0; ///< exact, over completed requests
        uint64_t windowSeconds = 0;
        Summary window;
        /** window.requests per second of the time the window's slots
         *  cover: min(window, time since construction) to one slot. */
        double qps = 0.0;
        double hitRatio = 0.0; ///< window cache / (cache + simulated)
    };

    View view(uint64_t now_us);

  private:
    struct Tally
    {
        Tally();
        void add(Outcome outcome, size_t bucket);
        void merge(const Tally &other);
        Summary summary() const;

        std::array<uint64_t, kOutcomes> count{};
        Histogram latency; ///< keyed by latency bucket index
        uint64_t epoch = 0; ///< a window slot's number since construction
    };

    const uint64_t windowUs_;
    const uint64_t slotUs_;
    const uint64_t startUs_;

    std::mutex mutex_; ///< guards everything below
    Tally total_;
    double latencySumMs_ = 0.0;
    std::array<Tally, kSlots> slots_;
};

/**
 * Render a registry snapshot's counters and gauges (plus free-form info
 * labels) in the Prometheus text exposition format. Dotted names become
 * underscored with an `eip_` prefix (serve.cache.hits ->
 * eip_serve_cache_hits). Histograms are not rendered: the daemon
 * exports latency as a count counter, a sum gauge and percentile gauges.
 */
std::string prometheusText(
    const obs::CounterDump &dump,
    const std::vector<std::pair<std::string, std::string>> &info = {});

} // namespace eip::serve

#endif // EIP_SERVE_METRICS_HH
