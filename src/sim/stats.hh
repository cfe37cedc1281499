/**
 * @file
 * Per-run simulation statistics: raw event counters plus the derived metrics
 * the paper reports (IPC, MPKI, miss ratio, coverage, accuracy). Every field
 * here is also exported by name through the observability layer (see
 * registerCacheStats, Cpu::registerCounters and src/obs).
 */

#ifndef EIP_SIM_STATS_HH
#define EIP_SIM_STATS_HH

#include <cstdint>
#include <string>

#include "util/histogram.hh"

namespace eip::obs {
class CounterRegistry;
}

namespace eip::sim {

/** Demand-miss latency histogram resolution: one bucket per cycle of
 *  observed fill latency, with everything beyond in the overflow bucket
 *  (DRAM plus jitter tops out well below this). */
inline constexpr size_t kMissLatencyBuckets = 256;

/** Upper bounds (inclusive, cycles) of the legacy three-way miss cost
 *  classification derived from the histogram. */
inline constexpr uint64_t kMissShortMax = 20;  ///< next-level-hit class
inline constexpr uint64_t kMissMediumMax = 60; ///< LLC class

/**
 * The headline metric formulas, one home each: SimStats, CacheStats, the
 * Cpu's live gauges and the sampled windows' deltas all evaluate these,
 * so a run's estimate and its registered gauges agree bit for bit.
 */
inline double
ipcOf(uint64_t instructions, uint64_t cycles)
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
}

/** @p events per kilo-instruction. */
inline double
mpkiOf(uint64_t events, uint64_t instructions)
{
    return instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(events) /
              static_cast<double>(instructions);
}

/** Timely-covered share of the would-be misses (see CacheStats::coverage
 *  for why late prefetches leave the denominator). */
inline double
coverageOf(uint64_t useful, uint64_t demandMisses, uint64_t late)
{
    uint64_t would_be = useful + (demandMisses - late);
    return would_be == 0
        ? 0.0
        : static_cast<double>(useful) / static_cast<double>(would_be);
}

/** Useful share of the issued prefetches. */
inline double
accuracyOf(uint64_t useful, uint64_t issued)
{
    return issued == 0
        ? 0.0
        : static_cast<double>(useful) / static_cast<double>(issued);
}

/** Event counters of one cache level. */
struct CacheStats
{
    uint64_t demandAccesses = 0;
    uint64_t demandHits = 0;
    uint64_t demandMisses = 0;       ///< includes late-prefetch misses
    uint64_t mshrMerges = 0;

    uint64_t prefetchRequested = 0;  ///< handed to the PQ by the prefetcher
    uint64_t prefetchDroppedFull = 0;///< PQ overflow
    uint64_t prefetchFiltered = 0;   ///< already cached / in flight /
                                     ///< queued (= sum of the three
                                     ///< drop-reason counters below)
    uint64_t prefetchDropDupQueued = 0;  ///< duplicate of a queued request
    uint64_t prefetchDropDupCached = 0;  ///< line already resident at issue
    uint64_t prefetchDropDupInflight = 0;///< line already in flight (MSHR)
    uint64_t prefetchMshrDeferrals = 0;  ///< issue attempts blocked on the
                                         ///< MSHR reserve; the request
                                         ///< stays queued and retries
    uint64_t prefetchIssued = 0;     ///< sent to the next level
    uint64_t usefulPrefetches = 0;   ///< prefetched line hit before eviction
    uint64_t latePrefetches = 0;     ///< demand merged into in-flight prefetch
    uint64_t wrongPrefetches = 0;    ///< prefetched line evicted unused

    uint64_t fills = 0;
    uint64_t evictions = 0;
    uint64_t writeAccesses = 0;      ///< store writes (L1D)

    // Wrong-path traffic (zero unless the CPU models wrong-path fetch).
    uint64_t wrongPathAccesses = 0;
    uint64_t wrongPathMisses = 0;

    /** Full demand-miss cost distribution (observed fill latency, one
     *  bucket per cycle; >= kMissLatencyBuckets in the overflow). */
    Histogram missLatency{kMissLatencyBuckets};
    uint64_t missLatencySum = 0;

    /** Demand misses the consumer waited <= kMissShortMax cycles for
     *  (next-level-hit class) — derived from the latency histogram; the
     *  three buckets reproduce the pre-histogram classification for the
     *  existing tables. */
    uint64_t
    missesShort() const
    {
        return latencyRangeCount(0, kMissShortMax);
    }

    /** Misses in (kMissShortMax, kMissMediumMax] cycles (LLC class). */
    uint64_t
    missesMedium() const
    {
        return latencyRangeCount(kMissShortMax + 1, kMissMediumMax);
    }

    /** Misses beyond kMissMediumMax cycles (DRAM class). */
    uint64_t
    missesLong() const
    {
        return latencyRangeCount(kMissMediumMax + 1, kMissLatencyBuckets - 1) +
               missLatency.overflow();
    }

    double
    missRatio() const
    {
        return demandAccesses == 0
            ? 0.0
            : static_cast<double>(demandMisses) /
                  static_cast<double>(demandAccesses);
    }

    /** Demand misses the prefetcher had not even started to service
     *  when the demand arrived (the truly unhidden ones). */
    uint64_t
    uncoveredMisses() const
    {
        return demandMisses - latePrefetches;
    }

    /**
     * Fraction of would-be misses eliminated by prefetching.
     *
     * The would-be-miss population splits three ways: timely covered
     * (counted in usefulPrefetches — the prefetched line was resident
     * before the demand), covered-in-flight (latePrefetches — the
     * demand merged into a prefetch the prefetcher already had in
     * flight, hiding part of the latency), and uncovered
     * (demandMisses - latePrefetches). A late prefetch is recorded
     * inside demandMisses AND stands for a prefetch outcome, so the
     * naive denominator usefulPrefetches + demandMisses counts that
     * event both as a prefetcher result and as a full would-be miss —
     * double-penalizing lateness that the accuracy/late counters
     * already attribute. Coverage therefore excludes in-flight-covered
     * misses from the denominator: useful / (useful + uncovered).
     * Regression-tested in tests/test_obs.cc (CoverageSemantics).
     */
    double
    coverage() const
    {
        return coverageOf(usefulPrefetches, demandMisses, latePrefetches);
    }

    /** Fraction of issued prefetches that were useful. */
    double
    accuracy() const
    {
        return accuracyOf(usefulPrefetches, prefetchIssued);
    }

  private:
    uint64_t
    latencyRangeCount(uint64_t lo, uint64_t hi) const
    {
        uint64_t sum = 0;
        for (uint64_t b = lo; b <= hi; ++b)
            sum += missLatency.count(b);
        return sum;
    }
};

/** Whole-run statistics. */
struct SimStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;

    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;  ///< direction/indirect-target errors
    uint64_t btbMisses = 0;          ///< taken branch with unknown target

    // Front-end stall attribution. Exactly one bucket is charged per
    // zero-fetch cycle; the four buckets partition fetchIdleCycles
    // (debug-asserted every cycle, regression-tested in test_cpu.cc).
    uint64_t fetchStallLineMiss = 0; ///< head FTQ line not yet arrived
    uint64_t fetchStallFtqEmptyMispredict = 0; ///< FTQ drained while a
                                               ///< redirect/flush resolves
    uint64_t fetchStallFtqEmptyStarved = 0;    ///< FTQ drained with the
                                               ///< front end unblocked:
                                               ///< prediction under-supply
    uint64_t fetchStallRobFull = 0;  ///< back end full (decode starvation
                                     ///< downstream of a stuffed ROB)
    uint64_t fetchIdleCycles = 0;    ///< cycles with zero fetched insts

    /** Legacy two-bucket view: FTQ-empty cycles regardless of cause. */
    uint64_t
    fetchStallFtqEmpty() const
    {
        return fetchStallFtqEmptyMispredict + fetchStallFtqEmptyStarved;
    }

    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats llc;
    uint64_t dramAccesses = 0;

    double ipc() const { return ipcOf(instructions, cycles); }

    /** L1I misses per kilo-instruction. */
    double l1iMpki() const { return mpkiOf(l1i.demandMisses, instructions); }
};

/**
 * Register every counter, derived metric and histogram of @p stats under
 * "<prefix>." names (e.g. "l1i.demand_misses", "l1i.coverage",
 * "l1i.miss_latency"). The registry reads @p stats live: it must not
 * outlive the object.
 */
void registerCacheStats(obs::CounterRegistry &reg, const std::string &prefix,
                        const CacheStats &stats);

} // namespace eip::sim

#endif // EIP_SIM_STATS_HH
