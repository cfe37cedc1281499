#include "core/entangling.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "obs/registry.hh"
#include "obs/why.hh"
#include "sim/cache.hh"
#include "util/bitops.hh"
#include "util/panic.hh"

namespace eip::core {

namespace {

// Hardware extension sizes (paper §III-C3): the PQ, MSHR and L1I carry the
// timing and src-entangled fields; their sizes are fixed by the baseline.
constexpr unsigned kPqEntries = 32;
constexpr unsigned kMshrEntries = 10;
constexpr unsigned kL1iLines = 512;
constexpr unsigned kMshrTimeBits = 12;
constexpr unsigned kHistPtrBits = 4;
constexpr unsigned kWayBits = 4; ///< 16-way Entangled table

/** Model-level cap on the attribution shadow: past it the whole map is
 *  dropped, which only forgets confidence feedback. */
constexpr size_t kMaxAttributions = 100000;

} // namespace

void
EntanglingPrefetcher::PendingMiss::addSource(const Source &src)
{
    if (numSources < kInlineSources) {
        inlineSources[numSources++] = src;
        return;
    }
    if (spilled.empty())
        spilled.assign(inlineSources.begin(), inlineSources.end());
    spilled.push_back(src);
    ++numSources;
}

EntanglingConfig
EntanglingConfig::preset2K(bool physical)
{
    EntanglingConfig cfg;
    cfg.tableEntries = 2048;
    cfg.mergeDistance = 15;
    cfg.physical = physical;
    return cfg;
}

EntanglingConfig
EntanglingConfig::preset4K(bool physical)
{
    EntanglingConfig cfg;
    cfg.tableEntries = 4096;
    cfg.mergeDistance = 6;
    cfg.physical = physical;
    return cfg;
}

EntanglingConfig
EntanglingConfig::preset8K(bool physical)
{
    EntanglingConfig cfg;
    cfg.tableEntries = 8192;
    cfg.mergeDistance = 5;
    cfg.physical = physical;
    return cfg;
}

EntanglingConfig
EntanglingConfig::presetSplit(uint32_t pair_entries, uint32_t bb_entries)
{
    // At the defaults: 1K pair entries (10.2KB) + 4K bb-size entries
    // (8.1KB) + extensions/history.
    EntanglingConfig cfg;
    cfg.tableEntries = pair_entries;
    cfg.tableWays = 16;
    cfg.mergeDistance = 15;
    cfg.splitBbEntries = bb_entries;
    return cfg;
}

EntanglingConfig
EntanglingConfig::presetEpi()
{
    EntanglingConfig cfg;
    cfg.tableEntries = 8704; // 256 sets x 34 ways
    cfg.tableWays = 34;
    cfg.historyEntries = 1024;
    cfg.mergeDistance = 5;
    return cfg;
}

EntanglingPrefetcher::EntanglingPrefetcher(const EntanglingConfig &config)
    : cfg(config),
      scheme_(config.physical ? CompressionScheme::physicalScheme()
                              : CompressionScheme::virtualScheme()),
      table_(config.tableEntries, config.tableWays, scheme_),
      bbTable(config.splitBbEntries != 0 ? config.splitBbEntries : 8,
              config.splitBbEntries != 0 ? config.splitBbWays : 8),
      history(config.historyEntries, config.timestampBits)
{}

unsigned
EntanglingPrefetcher::bbSizeOf(sim::Addr line)
{
    if (cfg.splitBbEntries != 0)
        return bbTable.lookup(line);
    EntangledEntry *e = table_.find(line);
    return e != nullptr ? e->bbSize : 0;
}

void
EntanglingPrefetcher::recordBlock(sim::Addr line, unsigned size)
{
    if (cfg.splitBbEntries != 0)
        bbTable.record(line, size);
    else
        table_.recordBasicBlock(line, size);
}

bool
EntanglingPrefetcher::tracksBasicBlocks() const
{
    return cfg.variant != EntanglingVariant::Ent;
}

bool
EntanglingPrefetcher::entangles() const
{
    return cfg.variant != EntanglingVariant::BB;
}

bool
EntanglingPrefetcher::prefetchesDstBlock() const
{
    return cfg.variant == EntanglingVariant::BBEntBB ||
           cfg.variant == EntanglingVariant::BBEntBBMerge;
}

bool
EntanglingPrefetcher::merges() const
{
    return cfg.variant == EntanglingVariant::BBEntBBMerge;
}

std::string
EntanglingPrefetcher::name() const
{
    std::string base;
    switch (cfg.variant) {
      case EntanglingVariant::BB: base = "BB"; break;
      case EntanglingVariant::BBEnt: base = "BBEnt"; break;
      case EntanglingVariant::BBEntBB: base = "BBEntBB"; break;
      case EntanglingVariant::Ent: base = "Ent"; break;
      case EntanglingVariant::BBEntBBMerge: base = "Entangling"; break;
    }
    if (cfg.historyEntries >= 1024)
        base = "EPI";
    if (cfg.splitBbEntries != 0)
        base += "-split";
    base += "-" + (cfg.tableEntries >= 1024
                       ? std::to_string(cfg.tableEntries / 1024) + "K"
                       : std::to_string(cfg.tableEntries));
    if (cfg.physical)
        base += "-phys";
    return base;
}

uint64_t
EntanglingPrefetcher::storageBits() const
{
    unsigned set_bits = floorLog2(table_.sets());
    unsigned tag_bits = cfg.physical ? 42 : 58;
    uint64_t src_bits = kWayBits + set_bits + 1; // way + set + access bit
    uint64_t pq_mshr_entry = kMshrTimeBits + kHistPtrBits + src_bits;
    uint64_t extensions = kPqEntries * pq_mshr_entry +
                          kMshrEntries * pq_mshr_entry +
                          kL1iLines * src_bits;
    uint64_t bb_bits =
        cfg.splitBbEntries != 0 ? bbTable.storageBits() : 0;
    return table_.storageBits() + bb_bits +
           history.storageBits(tag_bits) + extensions;
}

void
EntanglingPrefetcher::registerStats(obs::CounterRegistry &reg)
{
    // Trigger-side traffic and the pair lifecycle (cumulative over the
    // whole run including warm-up: table contents persist across the
    // measurement boundary, so resetting these would desynchronise them
    // from the state they describe).
    reg.counter("entangling.table_hits", &stats_.tableHits);
    reg.counter("entangling.table_misses", &stats_.tableMisses);
    reg.counter("entangling.pairs_created", &stats_.pairsCreated);
    reg.counter("entangling.merges", &stats_.merges);
    reg.counter("entangling.timely_updates", &stats_.timelyUpdates);
    reg.counter("entangling.late_updates", &stats_.lateUpdates);
    reg.counter("entangling.wrong_updates", &stats_.wrongUpdates);
    reg.counter("entangling.second_source_uses", &stats_.secondSourceUses);
    reg.counter("entangling.extra_searches", &stats_.extraSearches);

    const EntangledTableStats *t = &table_.stats();
    reg.counter("entangling.table.inserts", &t->inserts);
    reg.counter("entangling.table.evictions", &t->evictions);
    reg.counter("entangling.table.relocations", &t->relocations);
    reg.counter("entangling.table.relocation_evictions",
                &t->relocationEvictions);
    reg.counter("entangling.table.pairs_added", &t->pairsAdded);
    reg.counter("entangling.table.pairs_rejected", &t->pairsRejected);

    // Compression-format usage (Table II) and basic-block geometry.
    reg.histogram("entangling.dest_bits", &stats_.destBits);
    reg.histogram("entangling.dests_per_hit", &stats_.destsPerHit);
    reg.histogram("entangling.current_bb_size", &stats_.currentBbSize);
    reg.histogram("entangling.dst_bb_size", &stats_.dstBbSize);
}

void
EntanglingPrefetcher::registerInvariants(check::Invariants &inv)
{
    table_.registerInvariants(inv, "entangling.table");
    history.registerInvariants(inv, "entangling.history");

    // The basic-block accumulator registers stay mutually consistent:
    // a block tracked in the history points at a live slot that still
    // holds the block's head (no stale-slot dereference possible), and
    // the accumulated size respects the 6-bit field.
    inv.add("entangling.bb_register", [this](std::string &detail) {
        if (!bbValid)
            return true;
        if (bbSize > cfg.maxBasicBlockSize) {
            detail = "bb_size " + std::to_string(bbSize) + " > max " +
                     std::to_string(cfg.maxBasicBlockSize);
            return false;
        }
        if (bbInHistory && bbHistorySlot >= history.capacity()) {
            detail = "history slot " + std::to_string(bbHistorySlot) +
                     " >= capacity " + std::to_string(history.capacity());
            return false;
        }
        if (bbInHistory &&
            history.isCurrent(bbHistorySlot, bbHistoryGeneration) &&
            history.at(bbHistorySlot).line != bbHead) {
            detail = "slot " + std::to_string(bbHistorySlot) +
                     " holds line " +
                     std::to_string(history.at(bbHistorySlot).line) +
                     " but the tracked head is " + std::to_string(bbHead);
            return false;
        }
        return true;
    });

    // Pending misses stand in for the MSHR timing extension: each one
    // belongs to a demand-touched MSHR of the owner and leaves with its
    // fill, so there can never be more than the owner has MSHRs. More
    // means the model is leaking misses the hardware could not hold.
    inv.add("entangling.shadow_bounds", [this](std::string &detail) {
        if (owner == nullptr || pendingMisses.size() <= owner->mshrCount())
            return true;
        detail = "pending_misses=" + std::to_string(pendingMisses.size()) +
                 " > mshrs=" + std::to_string(owner->mshrCount());
        return false;
    });
}

obs::MissBlame
EntanglingPrefetcher::blame(sim::Addr line, sim::Addr pc)
{
    (void)pc;
    if (table_.ghostContains(line))
        return obs::MissBlame::PairEvicted;
    return obs::MissBlame::None;
}

void
EntanglingPrefetcher::issue(sim::Addr line, const SrcAttribution *pair)
{
    EIP_ASSERT(owner != nullptr, "prefetcher not attached to a cache");
    bool accepted = owner->enqueuePrefetch(line);
    if (accepted && pair != nullptr) {
        attribution[line] = *pair;
        if (attribution.size() > kMaxAttributions)
            attribution.clear();
    }
}

void
EntanglingPrefetcher::updateConfidence(sim::Addr line, bool good)
{
    const SrcAttribution *attr = attribution.find(line);
    if (attr == nullptr)
        return;
    EntangledEntry &entry = table_.entryAt(attr->set, attr->way);
    if (table_.tagAt(attr->set, attr->way) == attr->srcTag) {
        if (Destination *dst = entry.dests.find(attr->dstLine)) {
            bool is_head = line == attr->dstLine;
            if (good) {
                dst->confidence.increment();
            } else if (is_head || dst->confidence.value() > 1) {
                // Body-line feedback demotes the pair towards probation
                // but cannot kill it: only the entangled head itself
                // going wrong or late invalidates the entangling.
                // Without the floor a useful head is lost because its
                // *block* was noisy; with it, a demoted pair dies on
                // the first wrong/late head instead.
                dst->confidence.decrement();
                // Paper: "upon the eviction of a dst-entangled we
                // re-compute the mode" — a dead destination frees its
                // slot (and possibly widens the mode) immediately
                // instead of squatting until the entry is replaced.
                if (dst->confidence.zero())
                    entry.dests.dropDeadDestinations();
            }
        }
    }
    attribution.erase(line);
}

void
EntanglingPrefetcher::finishBasicBlock()
{
    if (!bbValid)
        return;
    uint32_t size = std::min(bbSize, cfg.maxBasicBlockSize);

    // Revalidate the held slot index before dereferencing: the slot may
    // have been recycled by newer pushes (or merge-invalidated) since
    // this block started.
    bool in_history = bbInHistory &&
        history.isCurrent(bbHistorySlot, bbHistoryGeneration);

    if (merges() && in_history) {
        // Spatio-temporal merge (§III-B2): if a quasi-recent basic block
        // overlaps or is contiguous with this one, extend it instead of
        // recording a new block.
        size_t slot = bbHistorySlot;
        for (uint32_t step = 0; step < cfg.mergeDistance; ++step) {
            slot = (slot + history.capacity() - 1) % history.capacity();
            HistoryEntry &e = history.at(slot);
            if (!e.valid)
                break;
            bool mergeable = e.line <= bbHead &&
                             bbHead <= e.line + e.bbSize + 1;
            if (!mergeable)
                continue;
            uint64_t merged = (bbHead + size) - e.line;
            if (merged > cfg.maxBasicBlockSize)
                continue; // 6-bit size field would overflow
            if (merged > e.bbSize) {
                e.bbSize = static_cast<uint8_t>(merged);
                recordBlock(e.line, static_cast<unsigned>(merged));
            }
            // The merged block is not recorded in the history.
            history.at(bbHistorySlot).valid = false;
            ++stats_.merges;
            bbValid = false;
            return;
        }
    }

    if (in_history)
        history.at(bbHistorySlot).bbSize = static_cast<uint8_t>(size);
    recordBlock(bbHead, size);
    bbValid = false;
}

void
EntanglingPrefetcher::trackBasicBlock(sim::Addr line, sim::Cycle now)
{
    if (!tracksBasicBlocks()) {
        // "Ent" ablation: every accessed line goes straight to history.
        bbHead = line;
        bbSize = 0;
        bbValid = true;
        bbHistorySlot = history.push(line, now);
        bbHistoryGeneration = history.generationOf(bbHistorySlot);
        bbInHistory = true;
        return;
    }

    if (bbValid) {
        if (line >= bbHead && line <= bbHead + bbSize)
            return; // re-access within the current block (tight loop)
        if (line == bbHead + bbSize + 1 &&
            bbSize < cfg.maxBasicBlockSize) {
            ++bbSize; // next consecutive line: the block grows
            return;
        }
        finishBasicBlock();
    }

    // A new basic block starts at this line.
    bbValid = true;
    bbHead = line;
    bbSize = 0;
    bbHistorySlot = history.push(line, now);
    bbHistoryGeneration = history.generationOf(bbHistorySlot);
    bbInHistory = true;
}

void
EntanglingPrefetcher::triggerPrefetches(sim::Addr line)
{
    EntangledEntry *entry = table_.find(line);
    unsigned own_size = cfg.splitBbEntries != 0
        ? bbTable.lookup(line)
        : (entry != nullptr ? entry->bbSize : 0);
    if (entry == nullptr && own_size == 0) {
        ++stats_.tableMisses;
        return;
    }
    ++stats_.tableHits;

    // (1) Prefetch the rest of the current basic block.
    if (tracksBasicBlocks()) {
        for (uint32_t i = 1; i <= own_size; ++i)
            issue(line + i, nullptr);
        stats_.currentBbSize.record(own_size);
    }

    // (2) Prefetch each confident destination (and its basic block).
    if (!entangles() || entry == nullptr)
        return;
    // Issuing never re-tags or moves this entry (only demand fills train
    // the table), so its src pointer holds for the whole loop.
    auto [set, way] = table_.coordsOf(*entry);
    const uint16_t tag = table_.tagAt(set, way);
    // Snapshot the live destinations first: in warming mode a prefetch
    // installs at once, and the eviction it causes can demote and drop
    // destinations of this very entry through updateConfidence().
    std::array<sim::Addr, kMaxDestinations> dst_lines;
    size_t found = 0;
    for (const auto &dst : entry->dests.all()) {
        if (dst.confidence.zero())
            continue; // invalid pair (paper §III-B1)
        dst_lines[found++] = dst.line;
    }
    for (size_t d = 0; d < found; ++d) {
        sim::Addr dst_line = dst_lines[d];
        const SrcAttribution pair{set, way, tag, dst_line};
        issue(dst_line, &pair);
        if (prefetchesDstBlock()) {
            ++stats_.extraSearches;
            uint32_t dst_bb = bbSizeOf(dst_line);
            // Body lines carry the pair's attribution: a wrong body
            // prefetch demotes the pair towards probation (see
            // updateConfidence) — without this the destination-block
            // spray has no feedback loop at all.
            for (uint32_t i = 1; i <= dst_bb; ++i)
                issue(dst_line + i, &pair);
            stats_.dstBbSize.record(dst_bb);
        }
    }
    stats_.destsPerHit.record(found);
}

void
EntanglingPrefetcher::onCacheOperate(const sim::CacheOperateInfo &info)
{
    // Commit-time training (§III-C1): wrong-path events neither train nor
    // trigger; the hardware buffers speculative pairs until commit.
    if (info.speculative && cfg.commitTimeTraining)
        return;

    const sim::Addr line = info.line;
    const sim::Cycle now = info.cycle;

    // Confidence: a first demand hit on a prefetched line is timely; a
    // demand miss merging into an in-flight prefetch is late (Fig. 5).
    if (info.hitWasPrefetch) {
        ++stats_.timelyUpdates;
        updateConfidence(line, /*good=*/true);
    } else if (info.missLatePrefetch) {
        ++stats_.lateUpdates;
        updateConfidence(line, /*good=*/false);
    }

    trackBasicBlock(line, now);

    // Only a miss whose fill will retire a demand-touched MSHR can be
    // learned from; a wrong-path miss that found no MSHR, or that merged
    // into an untouched prefetch, would never be consumed.
    if (!info.hit && info.holdsMshr) {
        PendingMiss &pm = pendingMisses[line];
        pm.demandCycle = now;
        // A late prefetch's latency runs from its PQ timestamp (§III-A2),
        // which the MSHR it merged into carries.
        pm.startCycle = info.missLatePrefetch ? info.prefetchIssueCycle : now;
        pm.isHead = false;
        pm.numSources = 0;
        pm.spilled.clear();
        if (line == bbHead && bbInHistory &&
            history.isCurrent(bbHistorySlot, bbHistoryGeneration)) {
            pm.isHead = true;
            // Snapshot the candidate sources: every head older than this
            // miss, newest first (the hardware's History pointer walk).
            history.walkBackwards(
                bbHistorySlot, history.capacity(),
                [&](HistoryEntry &e) {
                    pm.addSource(Source{e.line, e.recordedAt});
                    return false; // keep walking: collect them all
                });
        }
    }

    triggerPrefetches(line);
}

void
EntanglingPrefetcher::onCacheFill(const sim::CacheFillInfo &info)
{
    const sim::Addr line = info.line;

    // Wrong/early prefetch: an unused prefetched line leaves the cache.
    if (info.evictedUnusedPrefetch) {
        ++stats_.wrongUpdates;
        updateConfidence(info.evictedLine, /*good=*/false);
    }

    PendingMiss *found = pendingMisses.find(line);
    if (found == nullptr)
        return;
    PendingMiss pm = std::move(*found);
    pendingMisses.erase(line);

    // A fill no demand touched retires its MSHR without a miss to learn
    // from. Only a warming-mode miss whose own prefetch hook installed
    // the line gets here; any later miss on the line records afresh.
    if (!info.demandHappened)
        return;

    if (!entangles() || !pm.isHead || pm.numSources == 0)
        return;
    const Source *sources = pm.sources();

    // Latency of this fetch; the source must have executed at least this
    // many cycles before the demand miss for a prefetch to be timely.
    uint64_t latency = info.cycle - pm.startCycle;

    // Walk the snapshot (newest source first) for the first head that ran
    // at least `latency` cycles before the miss; fall back to the oldest
    // head remembered.
    size_t first_idx = pm.numSources - 1;
    for (size_t i = 0; i < pm.numSources; ++i) {
        if (history.checkedAge(sources[i].recordedAt, pm.demandCycle) >=
            latency) {
            first_idx = i;
            break;
        }
    }
    sim::Addr first_line = sources[first_idx].line;
    if (first_line == line)
        return;

    unsigned bits = std::max(1u, significantBits(first_line, line));
    if (table_.hasRoomFor(first_line, line)) {
        if (table_.addPair(first_line, line, /*evict_on_full=*/false)) {
            ++stats_.pairsCreated;
            stats_.destBits.record(bits);
        }
        return;
    }

    // First source is full: try one source further back (§III-B3), else
    // evict the first source's weakest destination.
    if (first_idx + 1 < pm.numSources) {
        sim::Addr second_line = sources[first_idx + 1].line;
        if (second_line != line &&
            table_.hasRoomFor(second_line, line)) {
            if (table_.addPair(second_line, line,
                               /*evict_on_full=*/false)) {
                ++stats_.pairsCreated;
                ++stats_.secondSourceUses;
                stats_.destBits.record(
                    std::max(1u, significantBits(second_line, line)));
            }
            return;
        }
    }
    if (table_.addPair(first_line, line, /*evict_on_full=*/true)) {
        ++stats_.pairsCreated;
        stats_.destBits.record(bits);
    }
}

} // namespace eip::core
