/**
 * @file
 * Top-level CPU model: a trace-driven out-of-order core with a decoupled
 * front-end (branch-prediction unit running ahead of fetch, fetch-directed
 * L1I accesses as lines enter the fetch target queue), a four-level memory
 * hierarchy, and a width/ROB-limited back-end. This mirrors the modified
 * ChampSim used by the paper (§IV-A).
 */

#ifndef EIP_SIM_CPU_HH
#define EIP_SIM_CPU_HH

#include <memory>
#include <vector>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/dram.hh"
#include "sim/stats.hh"
#include "sim/vmem.hh"
#include "trace/executor.hh"
#include "trace/instruction.hh"
#include "util/ring.hh"

namespace eip::obs {
class CounterRegistry;
class EventTracer;
class IntervalSampler;
class MissAttribution;
class PhaseProfiler;
enum class StallReason : uint8_t;
}

namespace eip::check {
class Invariants;
}

namespace eip::sim {

/**
 * The simulated processor. Construct with a config, attach an optional L1I
 * prefetcher, then run() a workload executor for a given instruction budget.
 * One measurement path serves both drivers: the detailed window
 * (runWindow) is the only timed primitive, beginMeasurement() the only
 * boundary and stats() the only result. run() is an optional warm-up
 * window and the boundary, then one measured window; a sampled run
 * (src/sample) interleaves warmFunctional() gaps between windows after
 * the boundary.
 */
class Cpu
{
  public:
    explicit Cpu(const SimConfig &cfg);
    ~Cpu();

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /** Attach the L1I prefetcher (may be null for the no-prefetch baseline).
     *  The prefetcher is owned by the caller and must outlive the Cpu. */
    void attachL1iPrefetcher(Prefetcher *pf);

    /**
     * Attach an event tracer (see src/obs/trace.hh) to the front end and
     * the L1I. Nullable; the tracer is a pure observer (never feeds back
     * into timing), so results are identical with and without one. Owned
     * by the caller and must outlive the Cpu's last run().
     */
    void attachTracer(obs::EventTracer *tracer);

    /**
     * Attach the miss-attribution observer (see src/obs/why.hh) to the
     * L1I and arm the attached prefetcher's blame machinery. Nullable;
     * a pure observer like the tracer, and its hooks are all
     * event-driven, so skipped cycles owe it nothing. Owned by the
     * caller and must outlive the Cpu's last run(). When invariant
     * checking is on, also registers the why.blame_partition audit
     * (blame categories partition the L1I demand misses exactly).
     */
    void attachWhy(obs::MissAttribution *why);

    /**
     * A full run: an optional detailed warm-up window of
     * @p warmup_instructions (every structure trains; its statistics are
     * then discarded by beginMeasurement()), then one measured window of
     * @p instructions, returning stats(). The optional @p sampler
     * snapshots the registered counters at instruction-interval
     * boundaries of the measured window; sampling is read-only and never
     * changes results. The optional @p profiler attributes host wall time
     * to the coarse phases (warmup / measure / fill_drain); it is touched
     * only between windows, never inside the cycle loop.
     */
    SimStats run(trace::InstructionSource &trace, uint64_t instructions,
                 uint64_t warmup_instructions = 0,
                 obs::IntervalSampler *sampler = nullptr,
                 obs::PhaseProfiler *profiler = nullptr);

    /** One window's scalar deltas: the inputs of the sampled estimator's
     *  four metrics (see src/sample and the formulas in sim/stats.hh). */
    struct WindowStats
    {
        uint64_t instructions = 0;
        uint64_t cycles = 0;
        uint64_t l1iDemandMisses = 0;
        uint64_t l1iUsefulPrefetches = 0;
        uint64_t l1iLatePrefetches = 0;
        uint64_t l1iPrefetchIssued = 0;
    };

    /**
     * Functional warming (SMARTS-style sampling, DESIGN.md §3.13):
     * execute @p instructions from @p trace so every learning structure
     * — caches, replacement state, branch predictors, BTB/RAS/ITC, the
     * prefetcher's tables — updates exactly as it would under detailed
     * simulation, while no pipeline timing is modelled and no statistic,
     * stall bucket, or observer moves. `now` advances at the CPI ratio
     * @p cpiCycles / @p cpiInstructions — the sampling controller feeds
     * it the previous detailed window's measurement (1:1 before any
     * window exists) — so in-flight fills and cycle-stamped prefetcher
     * learning span the same *instruction* distances as detailed
     * execution; those cycles are never charged to any counter, the
     * measured-cycle ledger included. The rate matters: with a fixed
     * 1 cycle/instruction clock, a high-IPC workload's warm MSHR
     * occupancy is several times shorter in instruction terms than
     * detailed simulation's, the data-side throttle
     * (Cache::setWarmMshrThrottle) never engages, and the LLC enters each
     * window holding lines the timed path would have dropped. Under
     * --check an entry/exit fingerprint audits that every statistic, the
     * cycle ledger included, stayed frozen.
     */
    void warmFunctional(trace::InstructionSource &trace,
                        uint64_t instructions, uint64_t cpiCycles = 1,
                        uint64_t cpiInstructions = 1);

    /**
     * The measurement boundary of both drivers: zero every statistic,
     * the measured-cycle ledger and the observer roll-ups, and pin the
     * instruction and DRAM origins. run() crosses it after its warm-up
     * window; a sampled run crosses it before its first detailed window
     * (warming freezes statistics in between, so the counters then hold
     * the sum over the windows).
     */
    void beginMeasurement();

    /**
     * One detailed window, the only timed primitive: full timing
     * simulation (event-skipping, DESIGN.md §3.8) until @p instructions
     * more retire. Works on either side of beginMeasurement(); an
     * optional @p sampler is ticked with the measured instruction and
     * cycle counts after every simulated cycle. Returns the window's
     * scalar deltas.
     */
    WindowStats runWindow(trace::InstructionSource &trace,
                          uint64_t instructions,
                          obs::IntervalSampler *sampler = nullptr);

    /** Statistics since the last beginMeasurement() (or construction).
     *  Cycles are the measured-cycle ledger: timed cycles only, never
     *  warming time. */
    SimStats stats() const;

    /**
     * Register every live counter of this CPU — core counters, the four
     * cache levels, DRAM, and (when attached) the L1I prefetcher's
     * custom statistics — with @p reg. This is the one list of the
     * cpu.* and dram.* names; its order is the artifact's key order.
     * Counters report the measured phase (they reset at
     * beginMeasurement() exactly like stats()); prefetcher-internal
     * statistics cover the whole run including warm-up. @p reg must not
     * outlive the Cpu.
     */
    void registerCounters(obs::CounterRegistry &reg);

    Cache &l1i() { return *l1i_; }
    Cache &l1d() { return *l1d_; }
    Cache &l2() { return *l2_; }
    Cache &llc() { return *llc_; }
    const SimConfig &config() const { return cfg; }

    /** The invariant registry of this CPU, or nullptr when checking is
     *  off (see check::checksEnabled()). Test-facing. */
    const check::Invariants *invariants() const { return checks_.get(); }
    /** Mutable view for tests that drive the fatal audit path. */
    check::Invariants *invariants() { return checks_.get(); }

    /**
     * Earliest future cycle at which any pipeline or hierarchy state can
     * change, clamped to @p bound (and never before now + 1): the
     * earliest in-flight fill across the four cache levels, the ROB
     * head's completion, the FTQ head's line arrival (included even when
     * the ROB is full, so a skip window never straddles the
     * line-miss -> rob-full stall transition), and the prediction unit's
     * stall release. See DESIGN.md §3.8.
     */
    Cycle nextEventCycle(Cycle bound = kCycleNever) const;

    /**
     * Number of cycles starting at now + 1 that are provably inert — every
     * stage is a no-op and no counter other than the stall taxonomy
     * advances — or 0 when the next cycle can act (fetch/predict/L1I
     * access eligible, wrong-path fetch live, a prefetch queued, or a
     * cycle-sensitive prefetcher attached). Skipping this many cycles and
     * bulk-charging the (static) stall bucket is bit-identical to
     * simulating them one by one.
     */
    Cycle inertWindow(Cycle bound = kCycleNever) const;

  private:
    friend class CpuTestPeer; ///< tests build pipeline states by hand
    /** One fetch group: consecutive instructions within one cache line. */
    struct FtqGroup
    {
        Addr line = 0;            ///< L1I-space line address
        Cycle ready = kCycleNever;
        bool accessPending = true;
        std::vector<trace::Instruction> insts;
        size_t consumed = 0;
        /** Per-instruction mispredict class: 0 none, 1 decode, 2 execute. */
        std::vector<uint8_t> mispredict;
    };

    struct RobEntry
    {
        Cycle done = 0;
        uint8_t mispredict = 0;
    };

    /** Register the front-end and cache-hierarchy invariants (only
     *  called when checking is enabled; see src/check). */
    void registerInvariants();
    void predictStage(trace::InstructionSource &trace);
    /** Fetch down the mispredicted path while the branch resolves. */
    void wrongPathStage();
    void l1iAccessStage();
    void fetchStage();
    void retireStage();
    /** Charge @p cycles zero-fetch cycles from @p first on to @p reason
     *  (its bucket and, when attached, the tracer's stall span). */
    void chargeStall(obs::StallReason reason, Cycle first, uint64_t cycles);
    /** Event-driven cycle skipping (DESIGN.md §3.8): when the next
     *  inertWindow() cycles are no-ops, jump `now` (and the cycle
     *  ledger) past them in one step, bulk-charging the stall taxonomy. */
    void skipIdleCycles(Cycle watchdog);
    /** Compute the completion cycle of an instruction entering the ROB. */
    Cycle backendLatency(const trace::Instruction &inst);
    /** Classify the prediction of a branch; trains all predictors and
     *  leaves the (possibly wrong) predicted target in lastPredictedPc. */
    uint8_t predictBranch(const trace::Instruction &inst);
    /** Shared body of predictBranch/warming: identical training and
     *  lookup sequence; the branch counters advance only when !Warming. */
    template <bool Warming>
    uint8_t predictBranchImpl(const trace::Instruction &inst);
    /** Hash of every statistic warming must not touch (retired, the
     *  cycle ledger, stall buckets, branch counters, per-level cache
     *  stats, DRAM accesses): warmFunctional audits entry == exit under
     *  --check. */
    uint64_t statsFingerprint() const;
    /** Line address of @p pc in the L1I's address space. */
    Addr l1iLine(Addr pc);

    SimConfig cfg;
    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<Dram> dram_;
    VirtualMemory vmem;

    std::unique_ptr<DirectionPredictor> direction;
    Btb btb;
    ReturnAddressStack ras;
    IndirectTargetCache itc;
    Prefetcher *l1iPrefetcher = nullptr;

    // Pipeline state. The FTQ holds at most one group per remaining
    // instruction (a fully-consumed group is popped the same cycle), so
    // ftqEntries bounds the group count; the ROB is pushed only below
    // robEntries. Both are therefore fixed-capacity rings.
    Cycle now = 0;
    util::Ring<FtqGroup> ftq;
    size_t ftqInsts = 0;
    /** FTQ groups whose L1I access has not happened yet (accessPending).
     *  Lets the scheduler tell fresh groups (access fires next cycle)
     *  from an MSHR-full backlog (inert until a fill) in O(1). */
    size_t ftqPendingAccess_ = 0;
    /** Last l1iAccessStage ended early on a full L1I MSHR file. */
    bool l1iAccessBlocked_ = false;
    Cycle predictStallUntil = 0;
    bool predictBlockedOnBranch = false;
    bool wrongPathActive = false;
    Addr wrongPathPc = 0;
    Addr lastPredictedPc = 0; ///< where the front-end believed it was going
    util::Ring<RobEntry> rob;
    uint64_t retired = 0;
    /** Tick every cycle: the reference schedule skipping must match.
     *  Test-only, set through CpuTestPeer. */
    bool perCycleReference_ = false;

    // Measurement origins, pinned by beginMeasurement(). Members so that
    // registered counter closures can report measured deltas live.
    uint64_t measureStartRetired_ = 0;
    uint64_t dramStart_ = 0;
    /** The one measured-cycle ledger: advanced only where the timed loop
     *  advances `now` (never by warming), zeroed at the boundary. */
    uint64_t cycles_ = 0;

    // Raw counters (copied into SimStats).
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t btbMisses = 0;
    uint64_t fetchStallLineMiss = 0;
    uint64_t fetchStallFtqEmptyMispredict = 0;
    uint64_t fetchStallFtqEmptyStarved = 0;
    uint64_t fetchStallRobFull = 0;
    uint64_t fetchIdleCycles = 0;

    obs::EventTracer *tracer_ = nullptr;
    obs::MissAttribution *why_ = nullptr;
    /** Cycle-level consistency checks; only allocated when checking is
     *  enabled, so unchecked runs pay one null-pointer test per cycle. */
    std::unique_ptr<check::Invariants> checks_;
};

} // namespace eip::sim

#endif // EIP_SIM_CPU_HH
