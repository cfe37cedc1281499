#include "sim/cache.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "obs/trace.hh"
#include "obs/why.hh"
#include "util/bitops.hh"
#include "util/panic.hh"

namespace eip::sim {

namespace {

/** Record a demand miss's consumer-observed latency (full distribution;
 *  the short/medium/long classes are derived views, see CacheStats). */
void
classifyMiss(CacheStats &stats, Cycle ready, Cycle now)
{
    uint64_t wait = ready > now ? ready - now : 0;
    stats.missLatencySum += wait;
    stats.missLatency.record(wait);
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : cfg(config), numSets(config.sets()),
      pq(std::max<uint32_t>(1, config.pqEntries))
{
    EIP_ASSERT(isPowerOf2(numSets), "cache set count must be a power of 2");
    EIP_ASSERT(cfg.ways >= 1, "cache needs at least one way");
    lines.resize(static_cast<size_t>(numSets) * cfg.ways);
    tags_.assign(lines.size(), kNoTag);
    stamps_.assign(lines.size(), 0);
    uint32_t mshr_count = cfg.mshrEntries == 0 ? 4096 : cfg.mshrEntries;
    mshrs.resize(mshr_count);
    mshrLines_.assign(mshr_count, 0);
    mshrBusy_.assign((mshr_count + 63) / 64, 0);
    drainScratch_.reserve(mshr_count);
}

size_t
Cache::findWay(Addr line) const
{
    size_t base = static_cast<size_t>(setIndex(line)) * cfg.ways;
    const Addr *tags = &tags_[base];
    for (uint32_t w = 0; w < cfg.ways; ++w) {
        if (tags[w] == line)
            return base + w;
    }
    return kNoWay;
}

Cache::Mshr *
Cache::findMshr(Addr line)
{
    for (size_t w = 0; w < mshrBusy_.size(); ++w) {
        for (uint64_t bits = mshrBusy_[w]; bits != 0; bits &= bits - 1) {
            size_t i = w * 64 + std::countr_zero(bits);
            if (mshrLines_[i] == line)
                return &mshrs[i];
        }
    }
    return nullptr;
}

Cache::Mshr *
Cache::allocMshr(Addr line, Cycle now)
{
    for (size_t w = 0; w < mshrBusy_.size(); ++w) {
        uint64_t free_bits = ~mshrBusy_[w];
        if (free_bits == 0)
            continue;
        size_t i = w * 64 + std::countr_zero(free_bits);
        if (i >= mshrs.size())
            return nullptr; // only the last word has bits past the end
        mshrBusy_[w] |= uint64_t{1} << (i % 64);
        ++inflightFills_;
        mshrLines_[i] = line;
        mshrs[i] = Mshr{};
        mshrs[i].issued = now;
        return &mshrs[i];
    }
    return nullptr;
}

uint32_t
Cache::freeMshrs() const
{
    return static_cast<uint32_t>(mshrs.size() - inflightFills_);
}

Cycle
Cache::fetchFromBelow(Addr line, Addr pc, Cycle now)
{
    if (nextLevel != nullptr)
        return nextLevel->demandAccess(line, pc, now).ready;
    EIP_ASSERT(dram_ != nullptr, "last-level cache has no DRAM attached");
    return dram_->access(now);
}

size_t
Cache::chooseVictim(size_t set_base)
{
    // Invalid ways always win (first one, as before). Lines are never
    // invalidated and this always takes the lowest invalid way, so a set
    // fills in way order and is full exactly when its last way is valid.
    const Addr *tags = &tags_[set_base];
    if (tags[cfg.ways - 1] == kNoTag) {
        for (uint32_t w = 0; w < cfg.ways; ++w) {
            if (tags[w] == kNoTag)
                return set_base + w;
        }
    }
    Line *set = &lines[set_base];
    switch (cfg.replacement) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        // Same victim rule (smallest stamp); they differ in touchLine().
        const uint64_t *stamps = &stamps_[set_base];
        uint32_t victim = 0;
        for (uint32_t w = 1; w < cfg.ways; ++w) {
            if (stamps[w] < stamps[victim])
                victim = w;
        }
        return set_base + victim;
      }
      case ReplacementPolicy::Random: {
        // xorshift64 step.
        victimSeed ^= victimSeed << 13;
        victimSeed ^= victimSeed >> 7;
        victimSeed ^= victimSeed << 17;
        return set_base + victimSeed % cfg.ways;
      }
      case ReplacementPolicy::Srrip: {
        // Find (ageing as needed) a line with the maximum RRPV. RRPV is
        // 2 bits and every resident line is <= 3, so one pass can age
        // any way to 3; more than a handful of passes means the ageing
        // stopped converging.
        for (int pass = 0;; ++pass) {
            EIP_ASSERT(pass <= 4, "SRRIP ageing loop did not converge");
            for (uint32_t w = 0; w < cfg.ways; ++w) {
                if (set[w].rrpv >= 3)
                    return set_base + w;
            }
            for (uint32_t w = 0; w < cfg.ways; ++w)
                ++set[w].rrpv;
        }
      }
    }
    return set_base;
}

void
Cache::touchLine(size_t index)
{
    switch (cfg.replacement) {
      case ReplacementPolicy::Lru:
        stamps_[index] = ++lruClock;
        break;
      case ReplacementPolicy::Fifo:
      case ReplacementPolicy::Random:
        break; // no promotion on hit
      case ReplacementPolicy::Srrip:
        lines[index].rrpv = 0;
        break;
    }
}

void
Cache::installLine(Addr line, const Mshr &entry)
{
    size_t base = static_cast<size_t>(setIndex(line)) * cfg.ways;
    size_t way = chooseVictim(base);
    Line *victim = &lines[way];
    Addr evicted = tags_[way];

    CacheFillInfo info;
    info.line = line;
    info.cycle = entry.ready;
    info.byPrefetch = entry.isPrefetch;
    info.demandHappened = entry.demandTouched;

    if (evicted != kNoTag) {
        info.evictedValid = true;
        info.evictedLine = evicted;
        if (victim->prefetched && !victim->used)
            info.evictedUnusedPrefetch = true;
        // Warming freezes statistics and observers; the prefetcher still
        // sees the full CacheFillInfo (learning continues, counting
        // does not).
        if (!warming_) {
            ++stats_.evictions;
            if (info.evictedUnusedPrefetch) {
                ++stats_.wrongPrefetches;
                if (tracer_ != nullptr)
                    tracer_->pfEvictedUnused(evicted, entry.ready);
            }
            if (why_ != nullptr) {
                why_->lineEvicted(evicted,
                                  victim->prefetched && !victim->used,
                                  entry.wrongPath);
            }
        }
    }

    tags_[way] = line;
    stamps_[way] = ++lruClock; // LRU stamp == FIFO fill stamp here
    victim->rrpv = 2;          // SRRIP long re-reference insertion
    victim->prefetched = entry.isPrefetch;
    victim->used = entry.demandTouched;
    if (!warming_) {
        ++stats_.fills;
        if (tracer_ != nullptr && entry.isPrefetch)
            tracer_->pfFilled(line, entry.ready, entry.demandTouched);
        if (why_ != nullptr && entry.isPrefetch)
            why_->prefetchFilled(line);
    }

    if (prefetcher != nullptr)
        prefetcher->onCacheFill(info);
}

void
Cache::drainFills(Cycle now)
{
    // O(1) on the per-cycle fast path: nothing due until the watermark.
    if (nextReady_ > now)
        return;

    // One scan splits the MSHRs into due fills and survivors; the due
    // ones install in (ready, MSHR index) order — exactly the order the
    // old repeated strictly-earliest selection produced — so eviction
    // decisions and fill hooks observe an unchanged timeline.
    drainScratch_.clear();
    Cycle next = kCycleNever;
    forEachBusyMshr([&](uint32_t i) {
        Cycle ready = mshrs[i].ready;
        if (ready <= now)
            drainScratch_.emplace_back(ready, i);
        else
            next = std::min(next, ready);
    });
    if (drainScratch_.size() > 1)
        std::sort(drainScratch_.begin(), drainScratch_.end());
    for (const auto &[ready, index] : drainScratch_) {
        (void)ready;
        installLine(mshrLines_[index], mshrs[index]);
        mshrBusy_[index / 64] &= ~(uint64_t{1} << (index % 64));
        --inflightFills_;
    }
    nextReady_ = next;
}

bool
Cache::probe(Addr line) const
{
    return findWay(line) != kNoWay;
}

Cache::Access
Cache::demandAccess(Addr line, Addr pc, Cycle now)
{
    now_ = now;
    if (nextReady_ <= now)
        drainFills(now);

    Access result;
    CacheOperateInfo op;
    op.line = line;
    op.triggerPc = pc;
    op.cycle = now;

    if (size_t way = findWay(line); way != kNoWay) {
        Line *hit = &lines[way];
        ++stats_.demandAccesses;
        ++stats_.demandHits;
        touchLine(way);
        if (hit->prefetched && !hit->used) {
            ++stats_.usefulPrefetches;
            op.hitWasPrefetch = true;
            if (tracer_ != nullptr)
                tracer_->pfFirstUse(line, now);
        }
        hit->used = true;
        if (why_ != nullptr)
            why_->demandHit(line);
        result.hit = true;
        result.ready = now + cfg.hitLatency;
        op.hit = true;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return result;
    }

    if (cfg.idealHit) {
        // Perfect L1I: always hit, but forward the request below so the
        // pollution of the L2/LLC is still modelled (paper §IV-B).
        ++stats_.demandAccesses;
        ++stats_.demandHits;
        ++stats_.prefetchIssued;
        fetchFromBelow(line, pc, now);
        Mshr pseudo;
        pseudo.ready = now;
        pseudo.isPrefetch = false;
        pseudo.demandTouched = true;
        installLine(line, pseudo);
        result.hit = true;
        result.ready = now + cfg.hitLatency;
        return result;
    }

    if (Mshr *inflight = findMshr(line)) {
        ++stats_.demandAccesses;
        ++stats_.demandMisses;
        op.holdsMshr = true;
        if (inflight->isPrefetch && !inflight->demandTouched) {
            // The paper's "late prefetch": a demand miss finds the access
            // bit unset in the MSHR entry allocated by a prefetch.
            ++stats_.latePrefetches;
            op.missLatePrefetch = true;
            op.prefetchIssueCycle = inflight->issued;
            if (tracer_ != nullptr) {
                tracer_->pfLateUse(line, now,
                                   inflight->ready > now
                                       ? inflight->ready - now
                                       : 0);
            }
        } else {
            ++stats_.mshrMerges;
        }
        if (why_ != nullptr) {
            if (op.missLatePrefetch)
                why_->recordMiss(obs::MissBlame::LatePartial, line, pc);
            else
                classifyDemandMiss(line, pc);
        }
        inflight->demandTouched = true;
        // A demanded fill is no longer wrong-path pollution.
        inflight->wrongPath = false;
        result.ready = std::max(inflight->ready, now + cfg.hitLatency);
        classifyMiss(stats_, result.ready, now);
        if (tracer_ != nullptr) {
            tracer_->demandMiss(line, now,
                                result.ready > now ? result.ready - now
                                                   : 0);
        }
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return result;
    }

    if (freeMshrs() == 0) {
        result.mshrFull = true;
        result.ready = now + 1;
        return result;
    }

    ++stats_.demandAccesses;
    ++stats_.demandMisses;
    // Classified before onCacheOperate below trains the prefetcher, so
    // blame() sees the table state the miss actually hit.
    if (why_ != nullptr)
        classifyDemandMiss(line, pc);
    Mshr *slot = allocMshr(line, now);
    slot->isPrefetch = false;
    slot->demandTouched = true;
    slot->wrongPath = false;
    slot->ready = fetchFromBelow(line, pc, now);
    nextReady_ = std::min(nextReady_, slot->ready);
    op.holdsMshr = true;
    result.ready = slot->ready;
    classifyMiss(stats_, result.ready, now);
    if (tracer_ != nullptr) {
        tracer_->demandMiss(line, now,
                            result.ready > now ? result.ready - now : 0);
    }
    if (prefetcher != nullptr)
        prefetcher->onCacheOperate(op);
    return result;
}

void
Cache::speculativeAccess(Addr line, Addr pc, Cycle now)
{
    now_ = now;
    if (nextReady_ <= now)
        drainFills(now);
    ++stats_.wrongPathAccesses;

    CacheOperateInfo op;
    op.line = line;
    op.triggerPc = pc;
    op.cycle = now;
    op.speculative = true;

    if (size_t way = findWay(line); way != kNoWay) {
        // Touch the replacement state as real wrong-path fetch would, but
        // leave the prefetch used-bit alone: a speculative touch is not a
        // use.
        touchLine(way);
        op.hit = true;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return;
    }
    ++stats_.wrongPathMisses;
    if (Mshr *inflight = findMshr(line)) {
        // Merging does not touch the entry: only a fill a demand already
        // touched will report demandHappened.
        op.holdsMshr = inflight->demandTouched;
    } else if (!cfg.idealHit) {
        if (Mshr *slot = allocMshr(line, now)) {
            slot->isPrefetch = false;
            slot->demandTouched = true; // wrong-path fills look demanded
            slot->wrongPath = true;
            slot->ready = fetchFromBelow(line, pc, now);
            nextReady_ = std::min(nextReady_, slot->ready);
            op.holdsMshr = true;
        }
    }
    if (prefetcher != nullptr)
        prefetcher->onCacheOperate(op);
}

Cycle
Cache::warmFetchBelow(Addr line, Addr pc, Cycle now)
{
    if (nextLevel != nullptr)
        return nextLevel->warmAccess(line, pc, now);
    EIP_ASSERT(dram_ != nullptr, "last-level cache has no DRAM attached");
    return now + dram_->warmLatency();
}

Cycle
Cache::warmAccess(Addr line, Addr pc, Cycle now)
{
    now_ = now;
    // Fills left in flight by the previous detailed window drain on
    // their own schedule (installLine is statistics-free while warming).
    if (nextReady_ <= now)
        drainFills(now);

    CacheOperateInfo op;
    op.line = line;
    op.triggerPc = pc;
    op.cycle = now;

    if (size_t way = findWay(line); way != kNoWay) {
        Line *hit = &lines[way];
        touchLine(way);
        if (hit->prefetched && !hit->used)
            op.hitWasPrefetch = true;
        hit->used = true;
        op.hit = true;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return now + cfg.hitLatency;
    }

    if (cfg.idealHit) {
        // Mirror the timed ideal-L1I path: always hit, still pollute the
        // levels below.
        warmFetchBelow(line, pc, now);
        Mshr pseudo;
        pseudo.ready = now;
        pseudo.isPrefetch = false;
        pseudo.demandTouched = true;
        installLine(line, pseudo);
        return now + cfg.hitLatency;
    }

    if (Mshr *inflight = findMshr(line)) {
        // A window-era fill is still in flight; demand-touch it and let
        // it drain when due (installing a second copy now would break
        // mshr_array_disjoint).
        if (inflight->isPrefetch && !inflight->demandTouched) {
            op.missLatePrefetch = true;
            op.prefetchIssueCycle = inflight->issued;
        }
        op.holdsMshr = true;
        inflight->demandTouched = true;
        inflight->wrongPath = false;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return std::max(inflight->ready, now + cfg.hitLatency);
    }

    // Miss: train the prefetcher first (it records the outstanding miss),
    // then install at the synthetic latency — onCacheFill fires at the
    // cycle a timed fill would have landed, so latency learning sees the
    // same distances as detailed simulation.
    if (warmThrottle_) {
        // Data-side level: contend for a real MSHR so warming thins the
        // miss stream exactly where the timed path abandons accesses
        // (see setWarmMshrThrottle). A dropped access still trained the
        // prefetcher above, like the timed drop did.
        Mshr *slot = allocMshr(line, now);
        if (slot == nullptr) {
            if (prefetcher != nullptr)
                prefetcher->onCacheOperate(op);
            return now + cfg.hitLatency + 1;
        }
        slot->isPrefetch = false;
        slot->demandTouched = true;
        slot->ready = warmFetchBelow(line, pc, now);
        nextReady_ = std::min(nextReady_, slot->ready);
        op.holdsMshr = true;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return slot->ready;
    }
    Cycle ready = warmFetchBelow(line, pc, now);
    // The install below stands in for a demand MSHR filling at `ready`.
    op.holdsMshr = true;
    if (prefetcher != nullptr)
        prefetcher->onCacheOperate(op);
    // The miss hook may have functionally prefetched the missing line
    // itself (enqueuePrefetch installs immediately while warming; the
    // timed path is protected by the demand MSHR allocated before its
    // hook fires). Installing a second copy would corrupt the set, so
    // adopt the prefetched copy as demand-touched instead.
    if (size_t way = findWay(line); way != kNoWay) {
        touchLine(way);
        lines[way].used = true;
        return ready;
    }
    Mshr pseudo;
    pseudo.ready = ready;
    pseudo.isPrefetch = false;
    pseudo.demandTouched = true;
    installLine(line, pseudo);
    return ready;
}

bool
Cache::enqueuePrefetch(Addr line)
{
    if (warming_) {
        // Functional prefetch: skip the queue and MSHRs, install the
        // line with its prefetch bit set, and fire the issue/fill hooks
        // at the synthetic latency so confidence learning continues.
        // The same duplicate filters as the timed issue path apply.
        if (findWay(line) != kNoWay || findMshr(line) != nullptr)
            return false;
        Cycle ready = warmFetchBelow(line, /*pc=*/0, now_);
        Mshr pseudo;
        pseudo.ready = ready;
        pseudo.isPrefetch = true;
        pseudo.demandTouched = false;
        installLine(line, pseudo);
        return true;
    }
    ++stats_.prefetchRequested;
    if (tracer_ != nullptr)
        tracer_->pfRequested(line, now_);
    if (cfg.pqEntries == 0) {
        ++stats_.prefetchDroppedFull;
        if (tracer_ != nullptr)
            tracer_->pfDropped(line, now_, obs::PfDropReason::QueueFull);
        if (why_ != nullptr)
            why_->prefetchDropped(line, obs::PfDropReason::QueueFull);
        return false;
    }
    // Duplicate suppression inside the queue (small, linear scan is fine).
    for (const auto &e : pq) {
        if (e.line == line) {
            ++stats_.prefetchFiltered;
            ++stats_.prefetchDropDupQueued;
            if (tracer_ != nullptr) {
                tracer_->pfDropped(line, now_,
                                   obs::PfDropReason::DupQueued);
            }
            if (why_ != nullptr)
                why_->prefetchDropped(line, obs::PfDropReason::DupQueued);
            return false;
        }
    }
    if (pq.size() >= cfg.pqEntries) {
        ++stats_.prefetchDroppedFull;
        if (tracer_ != nullptr)
            tracer_->pfDropped(line, now_, obs::PfDropReason::QueueFull);
        if (why_ != nullptr)
            why_->prefetchDropped(line, obs::PfDropReason::QueueFull);
        return false;
    }
    pq.push_back(PqEntry{line});
    if (tracer_ != nullptr)
        tracer_->pfQueued(line, now_);
    if (why_ != nullptr)
        why_->prefetchQueued(line);
    return true;
}

void
Cache::issuePrefetches(Cycle now)
{
    uint32_t budget = cfg.pqIssuePerCycle;
    while (budget > 0 && !pq.empty()) {
        Addr line = pq.front().line;
        if (findWay(line) != kNoWay) {
            ++stats_.prefetchFiltered;
            ++stats_.prefetchDropDupCached;
            if (tracer_ != nullptr)
                tracer_->pfDropped(line, now, obs::PfDropReason::DupCached);
            if (why_ != nullptr)
                why_->prefetchDropped(line, obs::PfDropReason::DupCached);
            pq.pop_front();
            continue;
        }
        if (findMshr(line) != nullptr) {
            ++stats_.prefetchFiltered;
            ++stats_.prefetchDropDupInflight;
            if (tracer_ != nullptr) {
                tracer_->pfDropped(line, now,
                                   obs::PfDropReason::DupInflight);
            }
            if (why_ != nullptr)
                why_->prefetchDropped(line,
                                      obs::PfDropReason::DupInflight);
            pq.pop_front();
            continue;
        }
        if (freeMshrs() <= cfg.pfMshrReserve) {
            // Keep demand-reserved MSHRs free; the request stays queued
            // and retries next cycle — a deferral, not a drop.
            ++stats_.prefetchMshrDeferrals;
            if (tracer_ != nullptr)
                tracer_->pfMshrDefer(line, now);
            return;
        }
        Mshr *slot = allocMshr(line, now);
        if (slot == nullptr)
            return;
        slot->isPrefetch = true;
        slot->demandTouched = false;
        slot->wrongPath = false;
        slot->ready = fetchFromBelow(line, /*pc=*/0, now);
        nextReady_ = std::min(nextReady_, slot->ready);
        ++stats_.prefetchIssued;
        if (tracer_ != nullptr)
            tracer_->pfIssued(line, now);
        pq.pop_front();
        --budget;
    }
}

void
Cache::registerInvariants(check::Invariants &inv, const std::string &prefix)
{
    // MSHR occupancy == in-flight fills: every allocation site increments
    // inflightFills_ and every drained fill decrements it, so a leaked or
    // double-freed MSHR shows up as a recount mismatch.
    inv.add(prefix + ".mshr_accounting", [this](std::string &detail) {
        uint64_t valid = 0;
        forEachBusyMshr([&](uint32_t) { ++valid; });
        if (valid == inflightFills_)
            return true;
        detail = "valid_mshrs=" + std::to_string(valid) +
                 " inflight_fills=" + std::to_string(inflightFills_);
        return false;
    });

    // The fill watermark is exact (allocation sites min it down,
    // drainFills recomputes it), and no completed fill lingers past a
    // tick/access boundary — fills drain only there, never from probes.
    inv.add(prefix + ".no_overdue_fills", [this](std::string &detail) {
        Cycle min_ready = kCycleNever;
        forEachBusyMshr([&](uint32_t i) {
            min_ready = std::min(min_ready, mshrs[i].ready);
        });
        if (nextReady_ != min_ready) {
            detail = "watermark=" + std::to_string(nextReady_) +
                     " recounted_min=" + std::to_string(min_ready);
            return false;
        }
        if (min_ready <= now_) {
            detail = "fill ready at " + std::to_string(min_ready) +
                     " still undrained at cycle " + std::to_string(now_);
            return false;
        }
        return true;
    });

    // No duplicate lines among in-flight fills, and no line both resident
    // in the array and in flight (a fill for a resident line would install
    // a duplicate copy). The prefetch queue is deliberately NOT part of
    // this disjointness: queued requests are filtered against the array
    // and the MSHRs at issue time, so transient overlap there is legal.
    inv.add(prefix + ".mshr_array_disjoint", [this](std::string &detail) {
        std::vector<Addr> inflight;
        forEachBusyMshr([&](uint32_t i) { inflight.push_back(mshrLines_[i]); });
        std::sort(inflight.begin(), inflight.end());
        for (size_t i = 1; i < inflight.size(); ++i) {
            if (inflight[i] == inflight[i - 1]) {
                detail = "duplicate in-flight line " +
                         std::to_string(inflight[i]);
                return false;
            }
        }
        for (Addr line : inflight) {
            if (findWay(line) != kNoWay) {
                detail = "line " + std::to_string(line) +
                         " both resident and in flight";
                return false;
            }
        }
        return true;
    });

    // Prefetch-queue bounds and intra-queue duplicate suppression
    // (enqueuePrefetch drops duplicates before they enter).
    inv.add(prefix + ".pq_consistency", [this](std::string &detail) {
        if (cfg.pqEntries == 0 && !pq.empty()) {
            detail = "disabled queue holds " + std::to_string(pq.size()) +
                     " entries";
            return false;
        }
        if (cfg.pqEntries != 0 && pq.size() > cfg.pqEntries) {
            detail = "occupancy " + std::to_string(pq.size()) + " > " +
                     std::to_string(cfg.pqEntries);
            return false;
        }
        for (size_t i = 0; i < pq.size(); ++i) {
            for (size_t j = i + 1; j < pq.size(); ++j) {
                if (pq[i].line == pq[j].line) {
                    detail = "duplicate queued line " +
                             std::to_string(pq[i].line);
                    return false;
                }
            }
        }
        return true;
    });

    // Set-array audit, one set per call (rotating cursor): valid lines
    // map to the set they sit in, no set holds the same line twice, and
    // no stamp is newer than the clock that issued it.
    inv.add(prefix + ".array_set_audit", [this](std::string &detail) {
        uint32_t set = auditSet_;
        auditSet_ = (auditSet_ + 1) % numSets;
        size_t base = static_cast<size_t>(set) * cfg.ways;
        for (uint32_t w = 0; w < cfg.ways; ++w) {
            Addr line = tags_[base + w];
            if (line == kNoTag)
                continue;
            if (setIndex(line) != set) {
                detail = "line " + std::to_string(line) +
                         " stored in set " + std::to_string(set) +
                         " but maps to set " +
                         std::to_string(setIndex(line));
                return false;
            }
            if (stamps_[base + w] > lruClock) {
                detail = "set " + std::to_string(set) + " way " +
                         std::to_string(w) + ": stamp " +
                         std::to_string(stamps_[base + w]) + " > clock " +
                         std::to_string(lruClock);
                return false;
            }
            for (uint32_t v = w + 1; v < cfg.ways; ++v) {
                if (tags_[base + v] == line) {
                    detail = "line " + std::to_string(line) +
                             " duplicated in set " + std::to_string(set);
                    return false;
                }
            }
        }
        return true;
    });

    // Stats identities: the inputs of missRatio()/coverage()/accuracy()
    // must stay mutually consistent (they all reset together at the
    // warm-up boundary, so the identities hold at every cycle).
    inv.add(prefix + ".stats_identities", [this](std::string &detail) {
        const CacheStats &s = stats_;
        if (s.demandAccesses != s.demandHits + s.demandMisses) {
            detail = "accesses=" + std::to_string(s.demandAccesses) +
                     " != hits=" + std::to_string(s.demandHits) +
                     " + misses=" + std::to_string(s.demandMisses);
            return false;
        }
        if (s.prefetchFiltered != s.prefetchDropDupQueued +
                                      s.prefetchDropDupCached +
                                      s.prefetchDropDupInflight) {
            detail = "filtered=" + std::to_string(s.prefetchFiltered) +
                     " != dup_queued=" +
                     std::to_string(s.prefetchDropDupQueued) +
                     " + dup_cached=" +
                     std::to_string(s.prefetchDropDupCached) +
                     " + dup_inflight=" +
                     std::to_string(s.prefetchDropDupInflight);
            return false;
        }
        if (s.latePrefetches > s.demandMisses) {
            // coverage()'s uncoveredMisses() would underflow.
            detail = "late=" + std::to_string(s.latePrefetches) +
                     " > misses=" + std::to_string(s.demandMisses);
            return false;
        }
        if (s.missLatency.total() != s.demandMisses) {
            detail = "latency_histogram_total=" +
                     std::to_string(s.missLatency.total()) +
                     " != misses=" + std::to_string(s.demandMisses);
            return false;
        }
        if (s.wrongPathMisses > s.wrongPathAccesses) {
            detail = "wrong_path_misses=" +
                     std::to_string(s.wrongPathMisses) + " > accesses=" +
                     std::to_string(s.wrongPathAccesses);
            return false;
        }
        return true;
    });
}

void
Cache::classifyDemandMiss(Addr line, Addr pc)
{
    obs::MissBlame verdict = why_->classifyShadow(line);
    if (verdict == obs::MissBlame::None && prefetcher != nullptr)
        verdict = prefetcher->blame(line, pc);
    if (verdict == obs::MissBlame::None) {
        verdict = why_->seenBefore(line) ? obs::MissBlame::NeverPredicted
                                         : obs::MissBlame::NotYetLearned;
    }
    why_->recordMiss(verdict, line, pc);
}

obs::EventTracer *
Prefetcher::tracer() const
{
    return owner != nullptr ? owner->tracer() : nullptr;
}

obs::MissBlame
Prefetcher::blame(Addr line, Addr pc)
{
    (void)line;
    (void)pc;
    return obs::MissBlame::None;
}

} // namespace eip::sim
