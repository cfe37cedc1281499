#include "core/entangled_table.hh"

#include "check/invariants.hh"
#include "util/bitops.hh"
#include "util/panic.hh"

namespace eip::core {

namespace {
constexpr unsigned kTagBits = 10; ///< paper §III-C3
} // namespace

void
GhostPairSet::record(sim::Addr line)
{
    // Dedup: a re-recorded line keeps its original FIFO age.
    if (!set_.insert(line).second)
        return;
    fifo_.push_back(line);
    // Bound the FIFO, stale entries included; dropping a live ghost here
    // only forgets an old eviction (that miss falls back to the seen-set
    // categories), it never double-counts.
    while (fifo_.size() > capacity_) {
        set_.erase(fifo_.front());
        fifo_.pop_front();
    }
}

EntangledTable::EntangledTable(uint32_t entries, uint32_t ways,
                               const CompressionScheme &scheme)
    : numSets(entries / ways), numWays(ways),
      setBits(floorLog2(entries / ways)), scheme_(scheme)
{
    EIP_ASSERT(entries % ways == 0, "entries must be a multiple of ways");
    EIP_ASSERT(isPowerOf2(numSets), "set count must be a power of two");
    table.assign(static_cast<size_t>(numSets) * numWays,
                 EntangledEntry(scheme));
    tags_.assign(table.size(), kNoTag);
}

uint32_t
EntangledTable::indexOf(sim::Addr line) const
{
    // "Indexed with a simple XOR operation of the different bits of the
    // address" — fold the whole line address down to the set index width.
    return static_cast<uint32_t>(xorFold(line, setBits)) & (numSets - 1);
}

uint16_t
EntangledTable::tagOf(sim::Addr line) const
{
    // Partial tag: the kTagBits address bits directly above the set
    // index, truncated — not folded. Since find() matches tag-only
    // (the hardware stores nothing else), a folded tag would alias
    // pairs of lines anywhere in the code footprint (~N²/2^18 pairs);
    // truncation confines false positives to lines at least
    // 2^(setBits+kTagBits) lines apart — 16 MB of code for the 4K
    // configuration, beyond any realistic instruction footprint. See
    // DESIGN.md (tag aliasing) for the decision record.
    return static_cast<uint16_t>((line >> setBits) & mask(kTagBits));
}

EntangledEntry *
EntangledTable::find(sim::Addr line)
{
    size_t base = static_cast<size_t>(indexOf(line)) * numWays;
    uint16_t tag = tagOf(line);
    const uint16_t *tags = &tags_[base];
    for (uint32_t w = 0; w < numWays; ++w) {
        // Tag-only match: the hardware stores just the 10-bit partial tag
        // (storageBits() charges exactly that), so lines aliasing to the
        // same (set, tag) share one entry and this can be a false
        // positive — intended, see tagOf(). Insertion always goes
        // through find() first, so (set, tag) stays unique. Invalid
        // ways hold kNoTag, which no partial tag equals.
        if (tags[w] == tag)
            return &table[base + w];
    }
    return nullptr;
}

EntangledEntry *
EntangledTable::insert(sim::Addr line)
{
    size_t base = static_cast<size_t>(indexOf(line)) * numWays;

    // Prefer an invalid way.
    for (uint32_t w = 0; w < numWays; ++w) {
        if (tags_[base + w] == kNoTag) {
            EntangledEntry &e = table[base + w];
            tags_[base + w] = tagOf(line);
            e.line = line;
            e.bbSize = 0;
            e.dests.clear();
            e.fifoOrder = ++fifoClock;
            ++stats_.inserts;
            return &e;
        }
    }

    // Enhanced FIFO: pick the oldest entry; if it still holds entangled
    // pairs and a pair-less way exists in the set, relocate its contents
    // there instead of losing them (paper §III-C3).
    EntangledEntry *victim = &table[base];
    for (uint32_t w = 1; w < numWays; ++w) {
        if (table[base + w].fifoOrder < victim->fifoOrder)
            victim = &table[base + w];
    }
    bool relocated = false;
    if (!victim->dests.empty()) {
        for (uint32_t w = 0; w < numWays; ++w) {
            EntangledEntry &spare = table[base + w];
            if (&spare != victim && spare.dests.empty()) {
                // Every way is valid here (the invalid-way loop above
                // would have won otherwise), so the pair-less spare holds
                // live information the relocation discards: account for
                // it, and re-stamp the relocated entry as the set's
                // newest — a relocation is a re-insertion, not a
                // continuation of the victim's residency.
                spare = *victim;
                tags_[base + w] = tags_[victim - table.data()];
                spare.fifoOrder = ++fifoClock;
                ++stats_.relocations;
                ++stats_.relocationEvictions;
                relocated = true;
                break;
            }
        }
    }
    if (!relocated) {
        ++stats_.evictions;
        // Miss attribution: the victim's pairs are lost — any future miss
        // on one of their destinations is explained by this eviction
        // (relocation and the pair-less spare it clobbers lose no pairs).
        if (ghost_ != nullptr) {
            for (const Destination &d : victim->dests.all()) {
                if (!d.confidence.zero())
                    ghost_->record(d.line);
            }
        }
    }
    tags_[victim - table.data()] = tagOf(line);
    victim->line = line;
    victim->bbSize = 0;
    victim->dests.clear();
    victim->fifoOrder = ++fifoClock;
    ++stats_.inserts;
    return victim;
}

EntangledEntry *
EntangledTable::recordBasicBlock(sim::Addr line, unsigned size)
{
    EntangledEntry *entry = find(line);
    if (entry == nullptr)
        entry = insert(line);
    if (size > entry->bbSize)
        entry->bbSize = static_cast<uint8_t>(std::min(size, 63u));
    return entry;
}

bool
EntangledTable::hasRoomFor(sim::Addr src_line, sim::Addr dst_line)
{
    EntangledEntry *entry = find(src_line);
    if (entry == nullptr)
        return true;
    return entry->dests.hasRoomFor(src_line, dst_line);
}

bool
EntangledTable::addPair(sim::Addr src_line, sim::Addr dst_line,
                        bool evict_on_full)
{
    EntangledEntry *entry = find(src_line);
    if (entry == nullptr)
        entry = insert(src_line);
    bool added = entry->dests.insert(src_line, dst_line, evict_on_full);
    if (added) {
        ++stats_.pairsAdded;
        // The destination is predictable again: clear its ghost.
        if (ghost_ != nullptr)
            ghost_->erase(dst_line);
    } else {
        ++stats_.pairsRejected;
    }
    return added;
}

void
EntangledTable::enableGhost()
{
    if (ghost_ == nullptr)
        ghost_ = std::make_unique<GhostPairSet>();
}

std::pair<uint32_t, uint32_t>
EntangledTable::coordsOf(const EntangledEntry &entry) const
{
    size_t pos = &entry - table.data();
    return {static_cast<uint32_t>(pos / numWays),
            static_cast<uint32_t>(pos % numWays)};
}

EntangledEntry &
EntangledTable::entryAt(uint32_t set, uint32_t way)
{
    return table[static_cast<size_t>(set) * numWays + way];
}

void
EntangledTable::registerInvariants(check::Invariants &inv,
                                   const std::string &prefix)
{
    // Per-set audit, rotating one set per call: tags derive from the
    // stored line, entries sit in the set their line maps to, each
    // (set, tag) appears at most once (find() matches tag-only, so a
    // duplicate would make lookups nondeterministic), and the FIFO
    // stamps are unique and no newer than the clock.
    inv.add(prefix + ".set_audit", [this](std::string &detail) {
        uint32_t set = auditSet_;
        auditSet_ = (auditSet_ + 1) % numSets;
        size_t base = static_cast<size_t>(set) * numWays;
        for (uint32_t w = 0; w < numWays; ++w) {
            const EntangledEntry &e = table[base + w];
            uint16_t tag = tags_[base + w];
            if (tag == kNoTag)
                continue;
            if (tag != tagOf(e.line)) {
                detail = "set " + std::to_string(set) + " way " +
                         std::to_string(w) + ": tag " +
                         std::to_string(tag) + " != tagOf(line)=" +
                         std::to_string(tagOf(e.line));
                return false;
            }
            if (indexOf(e.line) != set) {
                detail = "line " + std::to_string(e.line) +
                         " stored in set " + std::to_string(set) +
                         " but maps to set " +
                         std::to_string(indexOf(e.line));
                return false;
            }
            if (e.fifoOrder > fifoClock) {
                detail = "set " + std::to_string(set) + " way " +
                         std::to_string(w) + ": fifoOrder " +
                         std::to_string(e.fifoOrder) + " > clock " +
                         std::to_string(fifoClock);
                return false;
            }
            for (uint32_t v = w + 1; v < numWays; ++v) {
                const EntangledEntry &other = table[base + v];
                if (tags_[base + v] == kNoTag)
                    continue;
                if (tags_[base + v] == tag) {
                    detail = "set " + std::to_string(set) +
                             ": duplicate tag " + std::to_string(tag) +
                             " in ways " + std::to_string(w) + "/" +
                             std::to_string(v);
                    return false;
                }
                if (other.fifoOrder == e.fifoOrder) {
                    detail = "set " + std::to_string(set) +
                             ": duplicate fifoOrder " +
                             std::to_string(e.fifoOrder) + " in ways " +
                             std::to_string(w) + "/" + std::to_string(v);
                    return false;
                }
            }
        }
        return true;
    });

    // Every relocation clobbers exactly one valid pair-less spare way:
    // the two counters advance in lock-step. Reverting the relocation
    // accounting fix (or relocating into an invalid way) breaks this.
    inv.add(prefix + ".relocation_accounting", [this](std::string &detail) {
        if (stats_.relocations == stats_.relocationEvictions)
            return true;
        detail = "relocations=" + std::to_string(stats_.relocations) +
                 " relocation_evictions=" +
                 std::to_string(stats_.relocationEvictions);
        return false;
    });

    // Full occupancy recount (strided: the table can hold 8K+ entries):
    // inserts create valid entries, and the only ways one disappears are
    // a counted eviction or a counted relocation eviction.
    inv.add(
        prefix + ".occupancy_accounting",
        [this](std::string &detail) {
            uint64_t valid = 0;
            for (uint16_t tag : tags_)
                valid += tag != kNoTag ? 1 : 0;
            uint64_t expected = stats_.inserts - stats_.evictions -
                                stats_.relocationEvictions;
            if (valid == expected)
                return true;
            detail = "valid=" + std::to_string(valid) +
                     " inserts=" + std::to_string(stats_.inserts) +
                     " evictions=" + std::to_string(stats_.evictions) +
                     " relocation_evictions=" +
                     std::to_string(stats_.relocationEvictions);
            return false;
        },
        /*stride=*/256);
}

uint64_t
EntangledTable::storageBits() const
{
    uint64_t per_entry = kTagBits + 6 + scheme_.totalBits();
    // Per-set FIFO position counters (log2(ways) bits each).
    uint64_t per_set = floorLog2(numWays);
    return static_cast<uint64_t>(numSets) * numWays * per_entry +
           static_cast<uint64_t>(numSets) * per_set;
}

} // namespace eip::core
