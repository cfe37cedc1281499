/**
 * @file
 * The Entangled table (paper §III): a 16-way set-associative structure
 * whose entries hold a source basic-block head (10-bit partial tag), the
 * maximum observed size of its basic block, and a compressed array of
 * entangled destinations. Uses the paper's enhanced-FIFO replacement: the
 * information of the FIFO victim is relocated into a pair-less way of the
 * same set when one exists.
 */

#ifndef EIP_CORE_ENTANGLED_TABLE_HH
#define EIP_CORE_ENTANGLED_TABLE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/dest_compression.hh"
#include "sim/types.hh"

namespace eip::check {
class Invariants;
}

namespace eip::core {

/**
 * Ghost-pair set (miss attribution, DESIGN.md §3.11): a bounded,
 * deduplicated FIFO of destination lines whose predictions a table
 * discarded — the evidence behind the `pair_evicted` blame category.
 * Model-level shadow state only: it is allocated on demand (enableGhost /
 * Prefetcher::enableBlame), never consulted by prediction, and costs
 * nothing on plain runs.
 *
 * Entries are erased when the line is learned again; a line that is
 * evicted and later re-learned under a source we never see erased stays
 * resident until capacity pushes it out, so `pair_evicted` can
 * over-attribute slightly — but every miss still lands in exactly one
 * category, so the partition identity is unaffected.
 */
class GhostPairSet
{
  public:
    static constexpr size_t kDefaultCapacity = 4096;

    explicit GhostPairSet(size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {}

    /** Remember that a prediction targeting @p line was discarded. */
    void record(sim::Addr line);
    /** The line was learned again; it is no longer a ghost. */
    void erase(sim::Addr line) { set_.erase(line); }
    bool contains(sim::Addr line) const { return set_.count(line) != 0; }
    size_t size() const { return set_.size(); }

  private:
    size_t capacity_;
    /** Insertion order; may hold stale (erased) lines — popping one is a
     *  no-op on set_, so staleness only wastes FIFO slots. */
    std::deque<sim::Addr> fifo_;
    std::unordered_set<sim::Addr> set_;
};

/** One source entry of the Entangled table. Its valid bit and 10-bit
 *  partial tag live in the table's packed per-set tag array. */
struct EntangledEntry
{
    sim::Addr line = 0;    ///< full line address (model-level convenience;
                           ///< the hardware reconstructs it from context)
    uint8_t bbSize = 0;    ///< following consecutive lines (max observed)
    DestinationArray dests;
    uint64_t fifoOrder = 0;

    explicit EntangledEntry(const CompressionScheme &scheme)
        : dests(scheme)
    {}
};

/** Aggregate usage statistics exported for the Fig. 12-15 benches. */
struct EntangledTableStats
{
    uint64_t inserts = 0;
    /** Replacements that discarded the FIFO victim's information (the
     *  victim was pair-less, or no pair-less spare way existed). */
    uint64_t evictions = 0;
    uint64_t relocations = 0; ///< enhanced-FIFO victim rescues
    /** Replacements where the relocation rescued the victim but
     *  discarded the valid pair-less spare way it moved into — every
     *  relocation clobbers exactly one such entry, so this always
     *  equals relocations (a registered invariant). Kept distinct so
     *  evictions + relocationEvictions counts every entry whose
     *  information the table dropped. */
    uint64_t relocationEvictions = 0;
    uint64_t pairsAdded = 0;
    uint64_t pairsRejected = 0; ///< destination not representable
};

/**
 * The table proper. Lookups match on the set index plus the 10-bit partial
 * tag only — exactly the state the costed hardware holds — so two lines
 * mapping to the same (set, tag) alias onto one entry and a lookup can
 * return a false-positive match, as the hardware proposal accepts
 * (storageBits() charges the 10-bit tag accordingly). The full line
 * address kept per entry is model-level diagnostics for the invariant
 * auditor, never consulted by find(). The tags are packed per set, apart
 * from the entries, so find() scans one host cache line per set.
 */
class EntangledTable
{
  public:
    EntangledTable(uint32_t entries, uint32_t ways,
                   const CompressionScheme &scheme);

    /** Find the entry whose (set, partial tag) matches @p line, or
     *  nullptr. May be a false positive under tag aliasing (see class
     *  comment); at most one entry per (set, tag) can exist. */
    EntangledEntry *find(sim::Addr line);
    const EntangledEntry *
    find(sim::Addr line) const
    {
        return const_cast<EntangledTable *>(this)->find(line);
    }

    /**
     * Find-or-insert the entry for @p line and raise its basic-block size
     * to @p size (sizes only ever grow, paper §III-A1).
     */
    EntangledEntry *recordBasicBlock(sim::Addr line, unsigned size);

    /**
     * Entangle @p dst_line to source @p src_line. Inserts the source entry
     * if needed. @p evict_on_full replaces the lowest-confidence
     * destination when the array is full.
     * @return true when the pair is present on return.
     */
    bool addPair(sim::Addr src_line, sim::Addr dst_line, bool evict_on_full);

    /** Does the entry for @p src_line have room for @p dst_line? Entries
     *  that do not exist count as having room. */
    bool hasRoomFor(sim::Addr src_line, sim::Addr dst_line);

    uint32_t sets() const { return numSets; }
    uint32_t ways() const { return numWays; }
    uint32_t entries() const { return numSets * numWays; }
    const EntangledTableStats &stats() const { return stats_; }

    /** Entry coordinates (set, way) of @p entry — the paper's src pointer
     *  stored in PQ/MSHR/L1I. */
    std::pair<uint32_t, uint32_t> coordsOf(const EntangledEntry &entry) const;
    EntangledEntry &entryAt(uint32_t set, uint32_t way);
    /** Stored partial tag of (set, way); kNoTag when the way is invalid.
     *  The mutable overload exists for white-box corruption tests. */
    uint16_t tagAt(uint32_t set, uint32_t way) const
    {
        return tags_[static_cast<size_t>(set) * numWays + way];
    }
    uint16_t &tagAt(uint32_t set, uint32_t way)
    {
        return tags_[static_cast<size_t>(set) * numWays + way];
    }
    /** Tag of an invalid way; no 10-bit partial tag reaches it. */
    static constexpr uint16_t kNoTag = 0xFFFF;

    /** Total storage in bits: per-entry tag, bb size, destination payload
     *  and mode, plus per-set FIFO counters. */
    uint64_t storageBits() const;

    /**
     * Register this table's consistency checks with @p inv under
     * "<prefix>." names (see src/check): per-set tag/index/FIFO audit
     * (rotating one set per cycle) and the replacement accounting
     * identities (relocations == relocation evictions; valid entries ==
     * inserts - evictions - relocation evictions). @p inv must not
     * outlive the table.
     */
    void registerInvariants(check::Invariants &inv,
                            const std::string &prefix);

    /**
     * Arm ghost-pair tracking (miss attribution, DESIGN.md §3.11): from
     * now on, every destination with live confidence that an eviction
     * discards is recorded in a GhostPairSet, and addPair() clears the
     * ghost when a destination is re-learned. Never called on plain
     * runs, so the shadow set costs nothing when blame is off.
     */
    void enableGhost();
    /** Is @p line a destination whose entangled pair was evicted and not
     *  re-learned since? Always false until enableGhost(). */
    bool
    ghostContains(sim::Addr line) const
    {
        return ghost_ != nullptr && ghost_->contains(line);
    }

    /** Iterate all valid entries (benches/tests). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < table.size(); ++i) {
            if (tags_[i] != kNoTag)
                fn(table[i]);
        }
    }

  private:
    uint32_t indexOf(sim::Addr line) const;
    uint16_t tagOf(sim::Addr line) const;
    /** Insert a fresh entry for @p line, running replacement if needed. */
    EntangledEntry *insert(sim::Addr line);

    uint32_t numSets;
    uint32_t numWays;
    unsigned setBits;
    CompressionScheme scheme_;
    std::vector<EntangledEntry> table; ///< set-major
    /** Partial tag of each way, parallel to `table` (kNoTag when
     *  invalid): the only record of validity and tags. */
    std::vector<uint16_t> tags_;
    uint64_t fifoClock = 0;
    uint32_t auditSet_ = 0; ///< rotating cursor of the set audit
    EntangledTableStats stats_;
    /** Ghost-pair shadow set; null (and free) until enableGhost(). */
    std::unique_ptr<GhostPairSet> ghost_;
};

} // namespace eip::core

#endif // EIP_CORE_ENTANGLED_TABLE_HH
