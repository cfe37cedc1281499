/**
 * @file
 * Miss attribution ("why did this miss happen?"): every L1I demand
 * miss inside the measured window is classified into an exactly
 * partitioning blame taxonomy. The coverage/accuracy counters say
 * *that* a miss went uncovered; this layer says *why* — the prefetcher
 * never predicted the line, the prediction was dropped, the prefetch
 * was still in flight, the prefetched line was evicted before use, the
 * entangled pair had been evicted from the table, the line had never
 * been seen, or a wrong-path fill pushed it out.
 *
 * Two invariants define the ledger (audited fatally under --check and
 * re-validated offline by scripts/validate_stats_json.py):
 *
 *   blame[late_partial]              == l1i.late_prefetches
 *   sum(every other blame category)  == l1i uncovered demand misses
 *                                       (demand_misses - late_prefetches)
 *
 * so the full ledger sums to l1i.demand_misses — no miss is counted
 * twice, none is dropped.
 *
 * The simulator holds a nullable `MissAttribution *` exactly like the
 * event tracer: every hook site is one pointer test when off, the
 * layer is a pure observer (it never feeds back into timing), and all
 * hooks fire on events (access/fill/enqueue/evict), never per cycle,
 * so skipped cycles owe it nothing and blame counters are identical
 * across --jobs 1/N and to the per-cycle reference schedule.
 */

#ifndef EIP_OBS_WHY_HH
#define EIP_OBS_WHY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.hh"

namespace eip::obs {

class CounterRegistry;
class JsonWriter;
struct JsonValue;

/** Schema identifier of the "why" artifact section. */
inline constexpr const char *kWhySchema = "eip-why/v1";

/**
 * Blame taxonomy. `None` is the not-classified sentinel (what a
 * prefetcher's blame() hook returns when it has nothing to add); the
 * eight real categories partition the demand misses of the measured
 * window. Priority when several causes apply: late_partial (structural,
 * from the MSHR merge) > wrong_path_pollution > evicted_before_use >
 * dropped_queue_full > dropped_cross_page > pair_evicted (prefetcher
 * verdict) > not_yet_learned > never_predicted.
 */
enum class MissBlame : uint8_t
{
    None = 0,
    NeverPredicted,     ///< no prefetcher candidate ever targeted the line
    NotYetLearned,      ///< first dynamic encounter of the line
    DroppedQueueFull,   ///< last prediction died on a full prefetch queue
    DroppedCrossPage,   ///< last candidate was dropped at the page bound
    LatePartial,        ///< prefetch in flight at demand time
    EvictedBeforeUse,   ///< prefetched, filled, evicted unused
    PairEvicted,        ///< entangled pair evicted from the table
    WrongPathPollution, ///< evicted by a wrong-path fill
};
inline constexpr size_t kMissBlameCount = 8;

/** Stable counter/JSON name of one category ("never_predicted", ...). */
const char *missBlameName(MissBlame blame);

/** Index of a real category into kMissBlameCount-sized arrays. */
constexpr size_t
blameIndex(MissBlame blame)
{
    return static_cast<size_t>(blame) - 1;
}

/** Detached value snapshot for the artifact writer. */
struct WhyDump
{
    bool enabled = false;
    uint64_t top = 10; ///< requested hot-PC table depth (--why-top)
    std::array<uint64_t, kMissBlameCount> blame{};

    struct PcEntry
    {
        uint64_t pc = 0;
        uint64_t total = 0;
        std::array<uint64_t, kMissBlameCount> blame{};
    };
    /** Hottest miss PCs, ordered by total desc then pc asc. */
    std::vector<PcEntry> topPcs;

    uint64_t total() const;
};

/**
 * The blame ledger plus the per-line shadow state that feeds it. The
 * cache reports prefetch-lifecycle and eviction events; on each demand
 * miss it asks `classifyShadow` first, then the prefetcher's blame()
 * hook, then the seen-set, and records the verdict with `recordMiss`.
 *
 * Shadow state (flags + seen-set) persists across the warm-up
 * boundary — state learned during warm-up legitimately explains
 * measured misses — while the counters and the per-PC table reset with
 * the rest of the stats (`measurementBoundary`).
 */
class MissAttribution
{
  public:
    explicit MissAttribution(uint64_t top = 10) : top_(top) {}

    // -- cache-side shadow hooks (all O(1) amortized) -----------------

    /** A prefetch request for @p line was accepted into the queue. */
    void prefetchQueued(uint64_t line);
    /** A prefetch request (or candidate) for @p line was dropped. */
    void prefetchDropped(uint64_t line, PfDropReason reason);
    /** A prefetch fill installed @p line. */
    void prefetchFilled(uint64_t line);
    /** @p line was evicted from the cache. @p prefetchedUnused: it was
     *  prefetched and never demand-touched; @p byWrongPath: the fill
     *  that evicted it originated on the wrong path. */
    void lineEvicted(uint64_t line, bool prefetchedUnused,
                     bool byWrongPath);
    /** Demand hit on @p line: the episode resolved well; clear the
     *  line's shadow flags and mark it seen. */
    void demandHit(uint64_t line);

    // -- classification ----------------------------------------------

    /** Shadow verdict for a miss on @p line (None when the shadow has
     *  no cause on record; the caller then consults the prefetcher's
     *  blame() hook and finally the seen-set). */
    MissBlame classifyShadow(uint64_t line) const;
    /** Whether @p line was demand-accessed before (this run). */
    bool seenBefore(uint64_t line) const;
    /** Count a classified miss: bump the ledger and the per-PC table,
     *  consume the line's shadow flags, mark the line seen. */
    void recordMiss(MissBlame blame, uint64_t line, uint64_t pc);

    // -- aggregation --------------------------------------------------

    /** Warm-up boundary: zero the ledger and the per-PC table; shadow
     *  state persists (it explains the measured window). */
    void measurementBoundary();

    /** Register the eight ledger counters ("why.<category>"). */
    void registerCounters(CounterRegistry &reg) const;

    uint64_t count(MissBlame blame) const;
    /** Sum of all eight categories (== classified demand misses). */
    uint64_t total() const;

    uint64_t top() const { return top_; }

    /** Snapshot for the artifact writer (top-N hot-PC table resolved
     *  deterministically: total desc, then pc asc). */
    WhyDump dump() const;

  private:
    uint64_t top_;
    std::array<uint64_t, kMissBlameCount> counts_{};
    /** Per-line cause flags since the last demand access. */
    std::unordered_map<uint64_t, uint8_t> flags_;
    /** Lines demand-accessed at least once (warm-up included). */
    std::unordered_set<uint64_t> seen_;
    /** Per-PC ledger rows (miss PCs only; bounded by the code
     *  footprint, not the run length). */
    std::unordered_map<uint64_t, std::array<uint64_t, kMissBlameCount>>
        perPc_;
};

/** Emit the "why" section (an eip-why/v1 object) into an open JSON
 *  object: schema, requested depth, the eight-category ledger, and the
 *  hot-PC table. Byte-deterministic (fixed key order). */
void writeWhySection(JsonWriter &json, const WhyDump &dump);

/**
 * Render the `eipwhy` report for one parsed eip-run/v1 document (or
 * each run of an eip-suite/v1 roll-up): blame breakdown against the
 * run's demand misses, partition identity check, per-PC drill-down
 * (up to @p top rows) and — when interval samples carry the
 * entangled-table counters — the table churn timeline. Returns the
 * report text; on a malformed document or a broken partition identity
 * the description lands in @p error and the text rendered so far is
 * still returned (the caller exits non-zero).
 */
std::string whyReport(const JsonValue &doc, uint64_t top,
                      std::string *error);

} // namespace eip::obs

#endif // EIP_OBS_WHY_HH
