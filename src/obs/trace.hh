/**
 * @file
 * Bounded-overhead event tracing: typed events recorded into a per-run
 * ring buffer and exported as Chrome/Perfetto `trace_event` JSON
 * (schema `eip-trace/v1`).
 *
 * Two kinds of state live side by side and are deliberately decoupled:
 *
 *  - **Roll-up counters** (LifecycleCounts, stall totals). Every hook
 *    updates these unconditionally; they are exact over the measured
 *    window and reconcile 1:1 with the CounterRegistry stats of the
 *    same run. Ring-buffer wrap never perturbs them.
 *  - **The event ring**. Individual events are appended subject to the
 *    family mask (`--trace-events`) and the capacity limit
 *    (`--trace-limit`); once full, the oldest events are overwritten.
 *    The ring bounds memory, not correctness — analyses that need
 *    exact totals read the counters, the ring is for timelines.
 *
 * The simulator holds a nullable `EventTracer *`; with tracing off
 * every hook site is a single pointer test and the tracer is pure
 * observer (it never feeds back into timing), so stats are
 * byte-identical with and without `--trace-out`.
 */

#ifndef EIP_OBS_TRACE_HH
#define EIP_OBS_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace eip::obs {

/** Schema identifier stamped into trace artifacts. */
inline constexpr const char *kTraceSchema = "eip-trace/v1";

/** Why a prefetch request (or prefetcher candidate) was discarded. */
enum class PfDropReason : uint8_t
{
    QueueFull = 0,  ///< prefetch queue at capacity (or depth 0)
    DupQueued,      ///< same line already waiting in the queue
    DupCached,      ///< line already resident when issue was attempted
    DupInflight,    ///< line already in flight (MSHR hit) at issue
    CrossPage,      ///< candidate outside the trigger page, dropped by
                    ///< the prefetcher before it became a request
};
inline constexpr size_t kPfDropReasons = 5;

/** Why the fetch stage delivered zero instructions in a cycle.
 *  Exactly one reason is charged per zero-fetch cycle (the buckets
 *  partition SimStats::fetchIdleCycles). */
enum class StallReason : uint8_t
{
    LineMiss = 0,       ///< FTQ head still waiting on the L1I
    FtqEmptyMispredict, ///< FTQ drained while a redirect resolves
    FtqEmptyStarved,    ///< FTQ drained: prediction under-supplied fetch
    BackendFull,        ///< ROB full, nowhere to put instructions
};
inline constexpr size_t kStallReasons = 4;

const char *pfDropReasonName(PfDropReason reason);
const char *stallReasonName(StallReason reason);

/** Event families, maskable via --trace-events. The mask gates only
 *  what enters the ring; roll-up counters always update. */
enum TraceFamily : uint32_t
{
    kTracePf = 1u << 0,    ///< prefetch lifecycle ("pf")
    kTraceStall = 1u << 1, ///< fetch stall spans ("stall")
    kTraceCache = 1u << 2, ///< demand-miss instants ("cache")
    kTraceAll = kTracePf | kTraceStall | kTraceCache,
};

/** Parse a comma-separated family list ("pf,stall,cache") into a
 *  mask. Returns nullopt on an empty list or unknown name. */
std::optional<uint32_t> parseTraceFamilies(const std::string &spec);

struct TraceConfig
{
    /** Ring capacity in events. 24 B/event, so the default bounds the
     *  ring at ~24 MiB regardless of run length. */
    size_t limit = 1u << 20;
    uint32_t families = kTraceAll;
};

/**
 * Prefetch-lifecycle roll-up. The state machine per prefetch is
 *
 *   requested -> queued | dropped(QueueFull | DupQueued)
 *   queued    -> issued | dropped(DupCached | DupInflight)
 *   issued    -> filled
 *   filled    -> first-use | late-use(at fill) | evicted-unused
 *
 * Terminal states are mutually exclusive per prefetched line fill.
 * Stage equalities that hold in any measurement window (each hook
 * resolves atomically): requested == queued + dropQueueFull +
 * dropDupQueued. Cross-stage inequalities (issued <= queued, filled
 * <= issued, terminals <= filled) hold when the window covers the
 * whole run (warmup 0); with a warm-up boundary, in-flight prefetches
 * straddle the reset and the residuals below can go negative.
 */
struct LifecycleCounts
{
    uint64_t requested = 0; ///< Cache::enqueuePrefetch calls
    uint64_t queued = 0;    ///< accepted into the prefetch queue
    uint64_t dropQueueFull = 0;
    uint64_t dropDupQueued = 0;
    uint64_t dropDupCached = 0;
    uint64_t dropDupInflight = 0;
    uint64_t dropCrossPage = 0; ///< prefetcher candidates, pre-request
    uint64_t mshrDeferrals = 0; ///< issue attempts blocked on MSHRs
                                ///< (retried, not dropped)
    uint64_t issued = 0;        ///< MSHR allocated, sent to next level
    uint64_t filled = 0;        ///< prefetch fill installed a line
    uint64_t filledAfterDemand = 0; ///< ... demand hit the MSHR first
    uint64_t firstUse = 0;          ///< terminal: demand hit, timely
    uint64_t lateUse = 0;           ///< terminal: demand hit in flight
    uint64_t evictedUnused = 0;     ///< terminal: evicted untouched

    uint64_t droppedTotal() const;
    /** Window-relative residuals (see struct comment). */
    int64_t inQueue() const;
    int64_t inFlight() const;
    int64_t residentUnused() const;
};

/** Compact fixed-size ring entry; rendered to trace_event JSON only at
 *  export time. */
struct TraceEvent
{
    uint64_t cycle = 0;
    uint64_t line = 0; ///< cache-line address (byte >> 6); 0 if n/a
    uint64_t arg = 0;  ///< wait cycles (late-use, miss), dur (stall)
    uint8_t kind = 0;  ///< TraceEventKind
    uint8_t sub = 0;   ///< PfDropReason / StallReason / flags
};

enum class TraceEventKind : uint8_t
{
    PfRequested = 0,
    PfQueued,
    PfDropped,      ///< sub = PfDropReason
    PfMshrDefer,
    PfIssued,
    PfFilled,       ///< sub = 1 when the MSHR was demand-touched
    PfFirstUse,
    PfLateUse,      ///< arg = cycles the demand waited on the fill
    PfEvictedUnused,
    StallSpan,      ///< sub = StallReason, arg = span length
    DemandMiss,     ///< arg = miss latency in cycles
    MeasureStart,   ///< warm-up boundary: counters reset here
};

class EventTracer
{
  public:
    explicit EventTracer(const TraceConfig &cfg = TraceConfig{});

    const TraceConfig &config() const { return cfg; }
    const LifecycleCounts &lifecycle() const { return life; }
    const std::array<uint64_t, kStallReasons> &stallCycles() const
    {
        return stalls;
    }
    uint64_t idleCycles() const { return idle; }
    /** Events offered to the ring (post family mask, pre wrap). */
    uint64_t recordedEvents() const { return recorded; }
    size_t retainedEvents() const { return ring.size(); }
    bool wrapped() const { return didWrap; }

    // -- prefetch lifecycle hooks (family "pf") ------------------------
    void pfRequested(uint64_t line, uint64_t cycle);
    void pfQueued(uint64_t line, uint64_t cycle);
    void pfDropped(uint64_t line, uint64_t cycle, PfDropReason reason);
    void pfMshrDefer(uint64_t line, uint64_t cycle);
    void pfIssued(uint64_t line, uint64_t cycle);
    void pfFilled(uint64_t line, uint64_t cycle, bool demand_touched);
    void pfFirstUse(uint64_t line, uint64_t cycle);
    void pfLateUse(uint64_t line, uint64_t cycle, uint64_t wait);
    void pfEvictedUnused(uint64_t line, uint64_t cycle);

    // -- front-end cycle accounting (family "stall") -------------------
    /** Charge @p count zero-fetch cycles starting at @p first to
     *  @p reason. Consecutive cycles with the same reason coalesce into
     *  one "X" span event, however they were charged: a skipped window
     *  charged in one call traces exactly like its cycles one by one. */
    void stallCycle(StallReason reason, uint64_t first, uint64_t count = 1);
    /** Fetch delivered instructions this cycle: close any open span. */
    void fetchActive();

    // -- cache events (family "cache") ---------------------------------
    void demandMiss(uint64_t line, uint64_t cycle, uint64_t wait);

    // -- run phase -----------------------------------------------------
    /** Warm-up ended: zero every roll-up so they cover exactly the
     *  measured window (the same instant the sim stats are reset).
     *  Ring contents are kept — warm-up events are valid timeline. */
    void measurementBoundary(uint64_t cycle);
    /** End of run: close any open stall span. Call before toJson(). */
    void finish();

    /** Render the whole document (oldest retained event first).
     *  @p meta: extra string pairs for the "meta" object (workload,
     *  prefetcher, ... — supplied by the harness). */
    std::string
    toJson(const std::vector<std::pair<std::string, std::string>> &meta =
               {}) const;

  private:
    void record(TraceEvent ev, uint32_t family);
    void closeStallSpan();

    TraceConfig cfg;
    LifecycleCounts life;
    std::array<uint64_t, kStallReasons> stalls{};
    uint64_t idle = 0;

    std::vector<TraceEvent> ring;
    size_t head = 0; ///< index of the oldest event once wrapped
    bool didWrap = false;
    uint64_t recorded = 0;

    bool stallOpen = false;
    StallReason stallReason = StallReason::LineMiss;
    uint64_t stallStart = 0;
    uint64_t stallEnd = 0;
};

} // namespace eip::obs

#endif // EIP_OBS_TRACE_HH
