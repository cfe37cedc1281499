/**
 * @file
 * The instruction-prefetcher interface, mirroring the hooks ChampSim/IPC-1
 * exposes to contestants: cache operate, cache fill, branch operate, and
 * cycle operate. All prefetchers in this repository (the Entangling
 * prefetcher and every baseline) implement exactly this interface.
 */

#ifndef EIP_SIM_PREFETCHER_API_HH
#define EIP_SIM_PREFETCHER_API_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"
#include "trace/instruction.hh"

namespace eip::obs {
class CounterRegistry;
class EventTracer;
enum class MissBlame : uint8_t;
}

namespace eip::check {
class Invariants;
}

namespace eip::sim {

class Cache;

/** Information passed on every demand access to the owning cache. */
struct CacheOperateInfo
{
    Addr line = 0;            ///< cache-line address of the access
    Addr triggerPc = 0;       ///< PC of the fetching instruction
    Cycle cycle = 0;
    bool hit = false;         ///< present in the cache array
    bool hitWasPrefetch = false; ///< hit on a not-yet-used prefetched line
    bool missLatePrefetch = false; ///< miss merged into in-flight prefetch
    /** With missLatePrefetch: the cycle that prefetch left the PQ for the
     *  next level (the paper's PQ/MSHR timestamp, §III-A2). */
    Cycle prefetchIssueCycle = 0;
    /** The miss holds a demand-touched MSHR, so the fill that retires it
     *  reports demandHappened. Always set on a demand miss; a wrong-path
     *  miss holds one only when it got its own MSHR or merged into one a
     *  demand already touched. */
    bool holdsMshr = false;
    /** Access made down a mispredicted path (only when the simulator
     *  models wrong-path execution). A real prefetcher cannot observe
     *  this bit at access time; it stands in for the paper's §III-C1
     *  commit-time training buffer when evaluating that mitigation. */
    bool speculative = false;
};

/** Information passed on every cache fill. */
struct CacheFillInfo
{
    Addr line = 0;
    Cycle cycle = 0;
    bool byPrefetch = false;  ///< fill caused by a prefetch request
    bool demandHappened = false; ///< a demand touched the MSHR before fill
    bool evictedValid = false;
    Addr evictedLine = 0;
    bool evictedUnusedPrefetch = false; ///< wrong/early prefetch eviction
};

/**
 * Base class for L1I prefetchers. The owning cache calls the on*() hooks;
 * the prefetcher requests lines through Cache::enqueuePrefetch() (declared
 * in cache.hh) using the pointer passed at attach time.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Human-readable name used by the harness tables. */
    virtual std::string name() const = 0;

    /** Storage cost of the hardware structures, in bits. */
    virtual uint64_t storageBits() const = 0;

    /**
     * Export prefetcher-internal statistics (table hits, pairs created,
     * format histograms, ...) to the observability layer under
     * hierarchical names. Registered closures read the prefetcher's
     * live counters, so the registry must not outlive the prefetcher.
     * The default exports nothing.
     */
    virtual void registerStats(obs::CounterRegistry &) {}

    /**
     * Register prefetcher-internal consistency checks (see src/check)
     * under the prefetcher's own names. Called by the Cpu when invariant
     * checking is enabled; the registry runs the checks once per cycle
     * and must not outlive the prefetcher. The default registers none.
     */
    virtual void registerInvariants(check::Invariants &) {}

    /** Called once when the prefetcher is attached to its cache. */
    virtual void attach(Cache &cache) { owner = &cache; }

    /** Demand access to the owning cache (one call per distinct line). */
    virtual void onCacheOperate(const CacheOperateInfo &info)
    {
        (void)info;
    }

    /** A line was installed in the owning cache. */
    virtual void onCacheFill(const CacheFillInfo &info) { (void)info; }

    /** A branch was predicted by the front-end (retire-order stream). */
    virtual void
    onBranch(Addr pc, trace::BranchType type, Addr target)
    {
        (void)pc;
        (void)type;
        (void)target;
    }

    /** Called every simulated cycle — but only when cycleInert() below
     *  returns false; the owning cache elides the virtual call for the
     *  (default) inert case. */
    virtual void onCycle(Cycle now) { (void)now; }

    /**
     * May the simulator skip cycles in which this prefetcher receives no
     * other hook call? True for prefetchers whose onCycle() does nothing
     * (the default). Any override of onCycle() that keeps real per-cycle
     * state MUST also override this to return false, or the event-driven
     * scheduler (DESIGN.md §3.8) will silently starve that state; the
     * LookaheadOracle's cycle clock is the one current example.
     */
    virtual bool cycleInert() const { return true; }

    /**
     * Miss attribution (DESIGN.md §3.11): when blame is armed, the
     * prefetcher is asked to explain a demand miss the cache-side
     * shadow state could not (e.g. "the entangled pair for this line
     * was evicted from the table before its trigger fired"). Pure
     * observer — the verdict feeds the why.* ledger, never timing.
     * Return obs::MissBlame::None when this prefetcher has nothing to
     * add (the default; defined in cache.cc, which sees the enum).
     */
    virtual obs::MissBlame blame(Addr line, Addr pc);

    /**
     * Arm miss attribution: allocate whatever ghost/shadow structures
     * blame() needs (the entangled table's ghost-pair set, the
     * baselines' evicted-coverage sets). Called by the Cpu when a
     * MissAttribution observer is attached; never called on plain
     * runs, so the structures cost nothing when blame is off.
     */
    virtual void enableBlame() {}

  protected:
    /**
     * Event tracer of the owning cache; nullptr when tracing is off or
     * the prefetcher is unattached. Prefetchers use it to trace
     * candidates they discard *before* Cache::enqueuePrefetch ever sees
     * them (e.g. pfDropped with PfDropReason::CrossPage), which is the
     * only way such drops become visible. Pure observer: never branch
     * simulation behavior on it. Defined in cache.cc (needs Cache).
     */
    obs::EventTracer *tracer() const;

    Cache *owner = nullptr;
};

} // namespace eip::sim

#endif // EIP_SIM_PREFETCHER_API_HH
