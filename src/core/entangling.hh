/**
 * @file
 * The cost-effective Entangling Prefetcher for Instructions (Ros &
 * Jimborean, ISCA 2021). On every L1I demand access it detects basic-block
 * boundaries, records heads in a History buffer, measures the latency of
 * every miss at fill time, and entangles the missed line (destination) with
 * the basic-block head that executed at least `latency` cycles earlier
 * (source). An access to a source then prefetches the source's whole basic
 * block plus, for each confident destination, the destination's whole
 * basic block — making the prefetch *timely* by construction.
 */

#ifndef EIP_CORE_ENTANGLING_HH
#define EIP_CORE_ENTANGLING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bb_size_table.hh"
#include "core/entangled_table.hh"
#include "core/history_buffer.hh"
#include "sim/prefetcher_api.hh"
#include "util/flat_map.hh"
#include "util/histogram.hh"

namespace eip::core {

/** Which pieces of the full proposal are active (Fig. 11 ablation). */
enum class EntanglingVariant
{
    BB,           ///< basic-block prefetch only, no entangling
    BBEnt,        ///< + entangled destination lines (line only)
    BBEntBB,      ///< + destination basic blocks
    Ent,          ///< entangle every missing line, no basic blocks
    BBEntBBMerge, ///< full proposal: + spatio-temporal merging
};

/** Configuration of one Entangling prefetcher instance. */
struct EntanglingConfig
{
    uint32_t tableEntries = 4096;
    uint32_t tableWays = 16;
    uint32_t historyEntries = 16;
    /** How far back in the history merging may look (15/6/5 for the
     *  2K/4K/8K configurations, §IV-B). */
    uint32_t mergeDistance = 6;
    bool physical = false; ///< use the Table II compression scheme
    EntanglingVariant variant = EntanglingVariant::BBEntBBMerge;
    unsigned timestampBits = 20; ///< History buffer timestamp width
    uint32_t maxBasicBlockSize = 63;

    /**
     * §III-C1 mitigation: keep speculatively computed state out of the
     * tables until the instructions commit. Modelled by ignoring accesses
     * flagged speculative (wrong-path) for both training and triggering;
     * only relevant when the CPU models wrong-path execution.
     */
    bool commitTimeTraining = false;

    /**
     * Future-work study (§III-C3): store basic-block sizes in a separate,
     * cheaper table and reserve the Entangled table for sources that hold
     * pairs. splitBbEntries sizes the side table; when 0, the unified
     * organisation of the paper is used.
     */
    uint32_t splitBbEntries = 0;
    uint32_t splitBbWays = 8;

    /** Split preset: @p pair_entries Entangled-table entries behind a
     *  @p bb_entries bb-size table, merging as far back as the 2K
     *  point. The default is budget-matched to the 2K-unified (~20.9KB)
     *  point; the extension also runs (512, 8192) and (2048, 8192). */
    static EntanglingConfig presetSplit(uint32_t pair_entries = 1024,
                                        uint32_t bb_entries = 4096);

    /** The paper's three cost-effective configurations. */
    static EntanglingConfig preset2K(bool physical = false);
    static EntanglingConfig preset4K(bool physical = false);
    static EntanglingConfig preset8K(bool physical = false);
    /** The performance-oriented IPC-1 version (EPI): 1024-entry history,
     *  34-way table. */
    static EntanglingConfig presetEpi();
};

/** Statistics the analysis benches (Fig. 12-15) consume. */
struct EntanglingStats
{
    EntanglingStats()
        : destsPerHit(8), currentBbSize(64), dstBbSize(64), destBits(64)
    {}

    Histogram destsPerHit;    ///< destinations found on a table hit
    Histogram currentBbSize;  ///< prefetched lines of the current block
    Histogram dstBbSize;      ///< prefetched lines per destination block
    Histogram destBits;       ///< encoding width of inserted destinations
    uint64_t tableHits = 0;
    uint64_t tableMisses = 0;
    uint64_t pairsCreated = 0;
    uint64_t timelyUpdates = 0;
    uint64_t lateUpdates = 0;
    uint64_t wrongUpdates = 0;
    uint64_t merges = 0;
    uint64_t extraSearches = 0;   ///< dst basic-block size lookups
    uint64_t secondSourceUses = 0;
};

/**
 * The prefetcher. Implements the sim::Prefetcher hook interface; all state
 * beyond the documented hardware structures is shadow bookkeeping the real
 * hardware keeps in the PQ/MSHR/L1I extension fields (§III-C3). The PQ
 * timestamp of a late prefetch is the owning cache's MSHR issue cycle,
 * handed over in CacheOperateInfo.
 */
class EntanglingPrefetcher : public sim::Prefetcher
{
  public:
    explicit EntanglingPrefetcher(const EntanglingConfig &cfg);

    std::string name() const override;
    uint64_t storageBits() const override;

    /** Exports "entangling.*" counters (table traffic, pair lifecycle,
     *  compression-format and basic-block histograms). */
    void registerStats(obs::CounterRegistry &reg) override;

    /** Registers the Entangled-table and History-buffer audits plus the
     *  basic-block-register and shadow-state checks (see src/check). */
    void registerInvariants(check::Invariants &inv) override;

    void onCacheOperate(const sim::CacheOperateInfo &info) override;
    void onCacheFill(const sim::CacheFillInfo &info) override;

    /** Arms the Entangled table's ghost-pair set (DESIGN.md §3.11). */
    void enableBlame() override { table_.enableGhost(); }
    /** `pair_evicted` when @p line is a ghosted destination: its pair
     *  was evicted from the Entangled table and never re-learned. */
    obs::MissBlame blame(sim::Addr line, sim::Addr pc) override;

    const EntanglingStats &analysis() const { return stats_; }
    const EntangledTable &table() const { return table_; }
    /** Mutable table access for tests and white-box benches. */
    EntangledTable &mutableTable() { return table_; }
    const EntanglingConfig &config() const { return cfg; }

  private:
    /** A candidate source: (line, unwrapped record cycle) of a history
     *  head. The record cycle feeds HistoryBuffer::checkedAge(), which
     *  saturates instead of aliasing when a source is more than a full
     *  wrapped-clock period older than the miss. */
    struct Source
    {
        sim::Addr line = 0;
        sim::Cycle recordedAt = 0;
    };

    /** Sources held inline: a 16-entry History buffer yields at most 15.
     *  Larger buffers (EPI's 1024 entries) spill to the heap. */
    static constexpr size_t kInlineSources = 16;

    /** Shadow of the MSHR timing extension: one in-flight miss. The
     *  candidate sources (history entries older than the miss) are
     *  snapshotted at miss time: the hardware's History-buffer pointer
     *  refers to the buffer content as of the miss, and the decoupled
     *  front-end can push enough new heads during a long miss to recycle
     *  the 16 slots before the fill arrives. */
    struct PendingMiss
    {
        sim::Cycle demandCycle = 0;
        sim::Cycle startCycle = 0;   ///< prefetch issue time for late pf
        bool isHead = false;         ///< miss is on a basic-block head
        /** Older heads, newest first: the first numSources of
         *  inlineSources, or all of spilled once that is non-empty. */
        uint32_t numSources = 0;
        std::array<Source, kInlineSources> inlineSources;
        std::vector<Source> spilled;

        void addSource(const Source &src);
        const Source *sources() const
        {
            return spilled.empty() ? inlineSources.data() : spilled.data();
        }
    };

    /** Shadow of the PQ/L1I src-entangled extension: which pair caused a
     *  prefetched line (for confidence updates). dstLine is the pair's
     *  destination head — lines of the destination's basic block carry
     *  the head's attribution so a wrong body prefetch still demotes the
     *  pair that triggered it. */
    struct SrcAttribution
    {
        uint32_t set = 0;
        uint32_t way = 0;
        uint16_t srcTag = 0;
        sim::Addr dstLine = 0;
    };

    bool tracksBasicBlocks() const;
    bool entangles() const;
    bool prefetchesDstBlock() const;
    bool merges() const;

    /** Advance the basic-block detector with the line accessed at
     *  @p now. */
    void trackBasicBlock(sim::Addr line, sim::Cycle now);
    /** The current basic block ended: record/merge it. */
    void finishBasicBlock();
    /** Look up @p line and trigger the prefetches on a hit. */
    void triggerPrefetches(sim::Addr line);
    /** Request a prefetch of @p line. When @p pair is set the prefetch
     *  is charged to that pair for confidence feedback. */
    void issue(sim::Addr line, const SrcAttribution *pair);
    /** Adjust the confidence of the pair that prefetched @p line. */
    void updateConfidence(sim::Addr line, bool good);

    /** Basic-block size of @p line under either organisation. */
    unsigned bbSizeOf(sim::Addr line);
    /** Record a completed basic block under either organisation. */
    void recordBlock(sim::Addr line, unsigned size);

    EntanglingConfig cfg;
    CompressionScheme scheme_;
    EntangledTable table_;
    BbSizeTable bbTable; ///< only consulted when cfg.splitBbEntries > 0
    HistoryBuffer history;
    EntanglingStats stats_;

    // Basic-block accumulator registers (paper Fig. 4, top right).
    bool bbValid = false;
    sim::Addr bbHead = 0;
    uint32_t bbSize = 0;
    size_t bbHistorySlot = 0;
    /** Generation of bbHistorySlot at push time; the slot is only
     *  dereferenced after HistoryBuffer::isCurrent() revalidates it
     *  (slots recycle once capacity pushes happen). */
    uint64_t bbHistoryGeneration = 0;
    bool bbInHistory = false;

    // Shadow hardware extensions, keyed by line.
    /** One entry per miss holding a demand-touched MSHR of the owner:
     *  recorded at the miss, consumed by the fill that retires the MSHR,
     *  so it never outgrows the MSHR count (audited). */
    util::FlatMap<PendingMiss> pendingMisses;
    /** The src-entangled field of a prefetched line. Kept by line, not
     *  by PQ slot: a PQ entry dropped as a duplicate of a resident line
     *  keeps its attribution, and a later timely hit on that line
     *  consumes it. Cleared wholesale past kMaxAttributions. */
    util::FlatMap<SrcAttribution> attribution;
};

} // namespace eip::core

#endif // EIP_CORE_ENTANGLING_HH
