/**
 * @file
 * Fixed look-ahead discontinuity prefetching, plus the oracle analyzer
 * behind the paper's motivation figures (Fig. 1 and Fig. 2). The look-ahead
 * distance is counted in taken branches (discontinuities), as in the paper.
 */

#ifndef EIP_PREFETCH_LOOKAHEAD_HH
#define EIP_PREFETCH_LOOKAHEAD_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.hh"
#include "sim/cache.hh"
#include "sim/prefetcher_api.hh"
#include "util/ring.hh"
#include "util/histogram.hh"

namespace eip::prefetch {

/** The fixed look-ahead distances the factory names lookahead-<d>: the
 *  x-axis of Fig. 2. */
inline constexpr unsigned kLookaheadDistances[] = {1, 2, 4, 6, 8, 10};

/**
 * Markov-style discontinuity prefetcher with a fixed look-ahead distance n:
 * it learns the temporal successor of each discontinuity target and, on
 * every taken branch, follows the learned chain n steps and prefetches the
 * line found there (plus its next line). Used for Fig. 2.
 */
class LookaheadPrefetcher : public sim::Prefetcher
{
  public:
    explicit LookaheadPrefetcher(unsigned distance)
        : distance_(distance)
    {}

    std::string
    name() const override
    {
        return "Lookahead-" + std::to_string(distance_);
    }

    uint64_t
    storageBits() const override
    {
        return static_cast<uint64_t>(successor.size()) * (58 + 58);
    }

    void
    onBranch(sim::Addr pc, trace::BranchType type, sim::Addr target) override
    {
        (void)pc;
        (void)type;
        if (target == 0)
            return; // not taken
        sim::Addr line = sim::lineAddr(target);
        if (havePrev && prevLine != line)
            successor[prevLine] = line;
        havePrev = true;
        prevLine = line;

        // Chase the chain `distance` discontinuities ahead.
        sim::Addr cursor = line;
        for (unsigned step = 0; step < distance_; ++step) {
            auto it = successor.find(cursor);
            if (it == successor.end())
                return;
            cursor = it->second;
        }
        owner->enqueuePrefetch(cursor);
        owner->enqueuePrefetch(cursor + 1);
    }

  private:
    unsigned distance_;
    bool havePrev = false;
    sim::Addr prevLine = 0;
    std::unordered_map<sim::Addr, sim::Addr> successor;
};

/**
 * Oracle timeliness analyzer (Fig. 1): issues no prefetches; for every L1I
 * miss it measures the fetch latency and counts how many discontinuities
 * in advance a prefetch should have been issued not to be late. The
 * cumulative histogram over that distance is the fraction of misses a
 * fixed look-ahead-n prefetcher could serve timely.
 */
class LookaheadOracle : public sim::Prefetcher
{
  public:
    LookaheadOracle()
        : requiredDistance(kMaxDistance), discontinuities(512)
    {}

    /** Distances 1..kReportedDistances get a timely-fraction gauge. */
    static constexpr unsigned kReportedDistances = 10;

    std::string name() const override { return "LookaheadOracle"; }
    uint64_t storageBits() const override { return 0; }

    /** Exports timelyFraction(d) as the gauge "lookahead.timely_d<d>"
     *  for every d in 1..kReportedDistances. */
    void
    registerStats(obs::CounterRegistry &reg) override
    {
        for (unsigned d = 1; d <= kReportedDistances; ++d)
            reg.gauge("lookahead.timely_d" + std::to_string(d),
                      [this, d] { return timelyFraction(d); });
    }

    void
    onBranch(sim::Addr pc, trace::BranchType type, sim::Addr target) override
    {
        (void)pc;
        (void)type;
        if (target == 0)
            return;
        if (discontinuities.full())
            discontinuities.pop_front(); // keep the newest 512
        discontinuities.push_back(lastCycle);
    }

    void
    onCycle(sim::Cycle now) override
    {
        lastCycle = now;
    }

    /** The cycle clock above needs every cycle delivered: opt out of
     *  event-driven cycle skipping (see Prefetcher::cycleInert). */
    bool cycleInert() const override { return false; }

    void
    onCacheOperate(const sim::CacheOperateInfo &info) override
    {
        if (!info.hit)
            missStart[info.line] = info.cycle;
    }

    void
    onCacheFill(const sim::CacheFillInfo &info) override
    {
        auto it = missStart.find(info.line);
        if (it == missStart.end())
            return;
        sim::Cycle start = it->second;
        missStart.erase(it);
        uint64_t latency = info.cycle - start;
        // Count discontinuities in the window [start - latency, start]: a
        // prefetch must be issued before that window to arrive by `start`.
        size_t needed = 1;
        for (size_t i = discontinuities.size(); i-- > 0;) {
            sim::Cycle at = discontinuities[i]; // newest first
            if (at > start)
                continue; // discontinuity after the miss
            if (start - at >= latency)
                break; // far enough back: distance found
            ++needed;
        }
        requiredDistance.record(needed);
    }

    /** Fraction of misses a fixed look-ahead of @p n serves timely. */
    double
    timelyFraction(unsigned n) const
    {
        if (requiredDistance.total() == 0)
            return 0.0;
        uint64_t covered = 0;
        for (unsigned d = 0; d <= n && d < kMaxDistance; ++d)
            covered += requiredDistance.count(d);
        return static_cast<double>(covered) /
               static_cast<double>(requiredDistance.total());
    }

    const Histogram &distanceHistogram() const { return requiredDistance; }

  private:
    static constexpr size_t kMaxDistance = 64;

    Histogram requiredDistance;
    util::Ring<sim::Cycle> discontinuities;
    sim::Cycle lastCycle = 0;
    std::unordered_map<sim::Addr, sim::Cycle> missStart;
};

} // namespace eip::prefetch

#endif // EIP_PREFETCH_LOOKAHEAD_HH
