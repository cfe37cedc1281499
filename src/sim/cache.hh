/**
 * @file
 * Set-associative, non-blocking cache model with MSHRs, a prefetch queue,
 * per-line prefetch/used bits and prefetcher hooks. Timing uses latency
 * propagation: each miss computes its fill cycle by asking the next level
 * (recursively down to DRAM); fills are drained lazily as time advances.
 */

#ifndef EIP_SIM_CACHE_HH
#define EIP_SIM_CACHE_HH

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/dram.hh"
#include "sim/prefetcher_api.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "util/ring.hh"

namespace eip::obs {
class EventTracer;
class MissAttribution;
}

namespace eip::check {
class Invariants;
}

namespace eip::sim {

/**
 * One cache level. Works on cache-line addresses throughout. Levels are
 * chained with setNextLevel(); the last level must have a Dram attached.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    void setNextLevel(Cache *next) { nextLevel = next; }
    void setDram(Dram *dram) { dram_ = dram; }

    /** Attach an instruction prefetcher (L1I only). */
    void
    attachPrefetcher(Prefetcher *pf)
    {
        prefetcher = pf;
        pfCycleInert_ = pf == nullptr || pf->cycleInert();
        if (pf != nullptr)
            pf->attach(*this);
    }

    /** Result of a demand access. */
    struct Access
    {
        bool hit = false;       ///< array hit (or ideal-mode hit)
        bool mshrFull = false;  ///< access rejected: retry later
        Cycle ready = 0;        ///< cycle the data can be consumed
    };

    /**
     * Demand access to @p line issued at @p now by instruction @p pc.
     * Drains completed fills first. On MSHR exhaustion returns mshrFull and
     * records nothing (the caller retries and statistics stay single-count).
     */
    Access demandAccess(Addr line, Addr pc, Cycle now);

    /**
     * Wrong-path access: looks up and, on a miss, fetches and installs the
     * line like a demand access (the pollution §III-C1 talks about), but
     * is accounted separately (wrongPathAccesses/Misses) and never counts
     * towards hit/miss/useful-prefetch statistics. The prefetcher hook is
     * invoked with `speculative` set. Drops silently when MSHRs are full.
     */
    void speculativeAccess(Addr line, Addr pc, Cycle now);

    /**
     * Peek: is @p line resident right now? A pure lookup — no fill
     * drain, no replacement-state update. Completed-but-undrained fills
     * become visible at the next tick()/access boundary, never inside a
     * probe (the no_overdue_fills invariant pins fills to those
     * boundaries).
     */
    bool probe(Addr line) const;

    /**
     * Request a prefetch of @p line (prefetcher-facing). Enqueued into the
     * prefetch queue; dropped when the queue is full or disabled.
     * @return true when the request was accepted into the queue.
     * In warming mode (setWarming) the request bypasses the queue and
     * MSHRs entirely: the line installs functionally with its prefetch
     * bit set and the issue/fill hooks fire at a synthetic latency, so
     * the prefetcher's confidence learning continues while no timing or
     * statistics state moves.
     */
    bool enqueuePrefetch(Addr line);

    /**
     * Functional-warming access (SMARTS-style sampling, DESIGN.md §3.13):
     * the array, replacement state, prefetch/used bits and the prefetcher
     * hooks all update exactly as on a demand access, but no statistics,
     * observers, or MSHR timing state move. A miss fetches down the
     * hierarchy recursively (each level warms too) and installs the line
     * immediately at a synthetic latency — the DRAM mean instead of a
     * jitter draw — so latency-sensitive learning (the entangled table's
     * timeliness distances) keeps seeing realistic fill delays.
     * Fills left in flight by a preceding detailed window still drain
     * (statistics-free) as @p now passes their ready cycles.
     * @return the cycle at which the data would be consumable, exactly
     * parallel to Access::ready on the timed path.
     */
    Cycle warmAccess(Addr line, Addr pc, Cycle now);

    /**
     * Enter/leave functional-warming mode. While set, installLine and
     * drainFills freeze every statistic and observer hook (prefetcher
     * learning hooks still fire) and enqueuePrefetch installs
     * functionally. The Cpu flips this on all four levels around each
     * warming phase; the "stats frozen during warming" audit in
     * Cpu::warmFunctional pins the contract under --check.
     */
    void setWarming(bool on) { warming_ = on; }
    bool warming() const { return warming_; }

    /**
     * Make warmAccess contend for real MSHR entries instead of
     * installing misses immediately. The Cpu sets this on the data-side
     * levels (L1D, L2, LLC) because their timed paths ABANDON an access
     * when every MSHR is busy — backendLatency charges a flat penalty
     * and never fetches the line, and fetchFromBelow lets an upper-level
     * fill proceed past a saturated lower level. Warming must reproduce
     * that thinning or it over-populates the long-memory levels with
     * exactly the lines detailed simulation would have dropped, and the
     * first detailed window starts from a hierarchy state the full run
     * can never reach (measured: 3x the LLC data hit rate and +9% IPC on
     * fp workloads). The L1I keeps immediate installs: its timed path
     * retries a blocked access every cycle until it succeeds, so every
     * instruction line does eventually fetch.
     */
    void setWarmMshrThrottle(bool on) { warmThrottle_ = on; }

    /**
     * Per-cycle maintenance: drain fills, issue queued prefetches. This
     * runs four times per simulated cycle (once per level), so the
     * common all-idle case — no due fill, empty queue, no cycle hook —
     * must reduce to three inline compares.
     */
    void
    tick(Cycle now)
    {
        now_ = now;
        if (nextReady_ <= now)
            drainFills(now);
        if (!pq.empty())
            issuePrefetches(now);
        // Cycle-inert prefetchers (the default) never see onCycle at
        // all: the virtual call per cycle per level would be pure
        // overhead (see Prefetcher::cycleInert).
        if (!pfCycleInert_)
            prefetcher->onCycle(now);
    }

    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }
    const CacheConfig &config() const { return cfg; }

    /** Attach an event tracer (nullable; pure observer, see src/obs).
     *  With no tracer every hook site is one pointer test. */
    void setTracer(obs::EventTracer *tracer) { tracer_ = tracer; }
    obs::EventTracer *tracer() const { return tracer_; }

    /** Attach the miss-attribution observer (nullable; pure observer,
     *  see src/obs/why.hh). Same contract as the tracer: every hook
     *  site is one pointer test when off. */
    void setWhy(obs::MissAttribution *why) { why_ = why; }

    /** Number of free MSHR entries (for tests). */
    uint32_t freeMshrs() const;
    /** Number of MSHR entries, busy or free. */
    uint32_t mshrCount() const { return static_cast<uint32_t>(mshrs.size()); }
    /** Prefetch-queue occupancy (for tests). */
    size_t pqOccupancy() const { return pq.size(); }

    /**
     * Earliest `ready` cycle over the in-flight fills (kCycleNever when
     * none) — the incremental watermark drainFills() early-outs on. The
     * event-driven scheduler (Cpu::nextEventCycle) reads it as this
     * level's next state-change event.
     */
    Cycle nextFillReady() const { return nextReady_; }

    /**
     * True when a tick() at a cycle with no due fills is a no-op: the
     * prefetch queue is empty (nothing to issue) and the attached
     * prefetcher does not keep per-cycle state (Prefetcher::cycleInert).
     * Together with nextFillReady() this is this level's half of the
     * skip-ahead inertness proof.
     */
    bool
    tickInert() const
    {
        return pq.empty() && pfCycleInert_;
    }

    /**
     * Register this level's consistency checks with @p inv under
     * "<prefix>." names (see src/check): MSHR occupancy equals in-flight
     * fills, MSHR/array duplicate-freedom and disjointness, prefetch-queue
     * bounds, and the stats identities behind missRatio()/coverage().
     * The set-array audit rotates one set per cycle so even the LLC stays
     * cheap to check. @p inv must not outlive the cache.
     */
    void registerInvariants(check::Invariants &inv,
                            const std::string &prefix);

  private:
    /** Per-way state besides the tag and the LRU stamp, which live in
     *  their own packed arrays (tags_, stamps_). */
    struct Line
    {
        uint8_t rrpv = 3;       ///< SRRIP re-reference prediction value
        bool prefetched = false; ///< brought in by a prefetch
        bool used = false;       ///< touched by a demand access since fill
    };

    /** An in-flight fill; its line lives in the packed mshrLines_. */
    struct Mshr
    {
        Cycle ready = kCycleNever;
        /** Cycle the request left for the next level; for a prefetch,
         *  the paper's PQ timestamp. */
        Cycle issued = 0;
        bool isPrefetch = false;
        bool demandTouched = false; ///< the paper's MSHR "access bit"
        /** Fill initiated down the wrong path and never demanded since;
         *  its eviction victim is charged to wrong_path_pollution (read
         *  only by the miss-attribution observer). */
        bool wrongPath = false;
    };

    struct PqEntry
    {
        Addr line = 0;
    };

    uint32_t setIndex(Addr line) const { return line & (numSets - 1); }
    /** Array index (set-major) of the way holding @p line, or kNoWay. */
    size_t findWay(Addr line) const;
    static constexpr size_t kNoWay = ~size_t{0};
    /** Pick the victim way in @p set_base per the configured policy;
     *  returns its array index. */
    size_t chooseVictim(size_t set_base);
    /** Promote the way at @p index after a hit per the configured
     *  policy. */
    void touchLine(size_t index);
    Mshr *findMshr(Addr line);
    /** Call @p fn(index) for every busy MSHR, in index order. */
    template <typename Fn>
    void
    forEachBusyMshr(Fn &&fn) const
    {
        for (size_t w = 0; w < mshrBusy_.size(); ++w) {
            for (uint64_t bits = mshrBusy_[w]; bits != 0; bits &= bits - 1)
                fn(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
        }
    }
    /** Claim the lowest free MSHR for @p line, issued at @p now, and
     *  count its fill in flight; nullptr when every entry is busy. The
     *  caller sets the request kind and the ready cycle. */
    Mshr *allocMshr(Addr line, Cycle now);
    /** Fetch @p line from the next level; returns data-ready cycle. */
    Cycle fetchFromBelow(Addr line, Addr pc, Cycle now);
    /** Warming counterpart: recurse with warmAccess, mean DRAM latency. */
    Cycle warmFetchBelow(Addr line, Addr pc, Cycle now);
    /** Install @p line, filled by @p entry; fires eviction bookkeeping
     *  and the prefetcher's fill hook. */
    void installLine(Addr line, const Mshr &entry);
    /** Charge a demand miss to its blame category (why_ is non-null):
     *  shadow verdict, then the prefetcher's blame() hook, then the
     *  seen-set fallback. */
    void classifyDemandMiss(Addr line, Addr pc);
    void drainFills(Cycle now);
    void issuePrefetches(Cycle now);

    CacheConfig cfg;
    uint32_t numSets;
    std::vector<Line> lines;  ///< numSets * ways, set-major
    /**
     * Line address held by each way, parallel to `lines` (kNoTag when
     * invalid): the only record of validity and contents, packed one
     * host cache line per set so a lookup touches one host line.
     * Written solely by installLine (lines are never invalidated).
     */
    std::vector<Addr> tags_;
    /** LRU stamp of each way (doubles as the FIFO fill stamp), parallel
     *  to `lines`, so victim selection scans one packed run per set. */
    std::vector<uint64_t> stamps_;
    static constexpr Addr kNoTag = ~Addr{0}; ///< no real line address
                                             ///< (byte >> 6) reaches this
    std::vector<Mshr> mshrs;
    /** Line of each MSHR, parallel to `mshrs`; meaningful only while the
     *  entry is busy. Packed so a lookup scans one run of addresses. */
    std::vector<Addr> mshrLines_;
    /** One bit per MSHR, set while it is busy: the only record of which
     *  entries are, so scans visit busy entries only, in index order. */
    std::vector<uint64_t> mshrBusy_;
    util::Ring<PqEntry> pq;
    /** Fills currently in flight; every MSHR allocation increments it and
     *  every drained fill decrements it, so any path that frees or
     *  allocates an MSHR without going through the proper sites breaks
     *  the mshr_accounting invariant. */
    uint64_t inflightFills_ = 0;
    /**
     * Earliest `ready` over the valid MSHRs, kCycleNever when none —
     * kept exact: allocation sites min it down, drainFills recomputes it
     * from the survivors (the only place entries retire). Lets drainFills
     * early-out in O(1) on the per-cycle fast path instead of rescanning
     * every MSHR, and doubles as the scheduler's next-fill event.
     */
    Cycle nextReady_ = kCycleNever;
    /** Scratch for drainFills' (ready, index) ordering; member so the
     *  per-drain allocation is amortised away. */
    std::vector<std::pair<Cycle, uint32_t>> drainScratch_;
    uint32_t auditSet_ = 0; ///< rotating cursor of the set-array audit
    uint64_t lruClock = 0;
    uint64_t victimSeed = 0x9E3779B97F4A7C15ULL; ///< Random-policy state

    Cache *nextLevel = nullptr;
    Dram *dram_ = nullptr;
    Prefetcher *prefetcher = nullptr;
    /** Cached Prefetcher::cycleInert() of the attached prefetcher (true
     *  when none): pulls the per-cycle virtual call out of tick(). */
    bool pfCycleInert_ = true;
    obs::EventTracer *tracer_ = nullptr;
    obs::MissAttribution *why_ = nullptr;
    /** Current cycle as of the last public entry point; gives
     *  enqueuePrefetch (which has no cycle parameter) a timestamp. */
    Cycle now_ = 0;
    /** Functional-warming mode (see setWarming). */
    bool warming_ = false;
    /** Warm misses contend for MSHRs (see setWarmMshrThrottle). */
    bool warmThrottle_ = false;

    CacheStats stats_;
};

} // namespace eip::sim

#endif // EIP_SIM_CACHE_HH
