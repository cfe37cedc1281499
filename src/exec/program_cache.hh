/**
 * @file
 * Shared, thread-safe memoization of trace::buildProgram(). A full
 * evaluation replays the same workload under many prefetcher configs —
 * Fig. 6 alone runs 12 workloads under 17 configs — and the synthetic
 * program depends only on the generator config, so building it once per
 * distinct config removes ~94% of the CFG-construction work and lets
 * concurrent jobs share one immutable Program.
 *
 * Sharing is safe because a built Program is never mutated: the Executor
 * takes `const Program &` and keeps all run state (RNG, stack, cursors)
 * job-local.
 *
 * The cache is LRU-bounded (util::LruMap, weight 1 per program) so a
 * long-running process — the eipd job server in particular — cannot
 * grow it without bound; an evicted program that is still referenced
 * stays alive through its shared_ptr, eviction only forfeits reuse.
 * Keys are the canonical config JSON (exec/canonical.hh), the same
 * serialization the serve result cache folds into its content
 * addresses.
 */

#ifndef EIP_EXEC_PROGRAM_CACHE_HH
#define EIP_EXEC_PROGRAM_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "trace/program_builder.hh"
#include "util/lru.hh"

namespace eip::obs {
class CounterRegistry;
}

namespace eip::exec {

class ProgramCache
{
  public:
    /** Resident programs before LRU eviction kicks in. Generous against
     *  the catalogue (17 workloads) and every bench line-up; the knob
     *  exists for the serve daemon and the bounding tests. */
    static constexpr uint64_t kDefaultCapacity = 128;

    explicit ProgramCache(uint64_t capacity = kDefaultCapacity)
        : slots(capacity)
    {}

    /**
     * Return the program for @p cfg, building it at most once per distinct
     * resident config even under concurrent calls (losers of the race
     * block on the winner's build instead of duplicating it). The returned
     * pointer stays valid for the caller's lifetime regardless of clear()
     * or eviction.
     */
    std::shared_ptr<const trace::Program> get(const trace::ProgramConfig &cfg);

    /** Programs actually constructed (for tests and cache-hit telemetry). */
    uint64_t builds() const { return buildCount.load(); }

    /** Lookups served without building. */
    uint64_t hits() const { return hitCount.load(); }

    /** Lookups that had to insert a fresh slot (first sight or evicted). */
    uint64_t misses() const;

    /** Programs dropped by LRU capacity pressure. */
    uint64_t evictions() const;

    /** Resident program count. */
    uint64_t entries() const;

    /** Change the LRU bound (shrinking evicts immediately). */
    void setCapacity(uint64_t capacity);

    /**
     * Register the eviction-stat vocabulary this cache shares with the
     * serve result cache — <prefix>.hits/misses/evictions/builds/entries
     * — on @p registry (non-owning: the cache must outlive it).
     */
    void registerStats(obs::CounterRegistry &registry,
                       const std::string &prefix) const;

    /** Drop all cached programs (outstanding shared_ptrs stay valid). */
    void clear();

    /**
     * The process-wide cache used by the harness. Benches re-run the same
     * suite under many configs in one process, so a global instance is
     * what converts repeated builds into hits.
     */
    static ProgramCache &global();

  private:
    /** One cache line: the build runs under the slot's once_flag so the
     *  map lock is never held across buildProgram(). */
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const trace::Program> program;
    };

    mutable std::mutex mutex;
    util::LruMap<std::string, std::shared_ptr<Slot>> slots;
    std::atomic<uint64_t> buildCount{0};
    std::atomic<uint64_t> hitCount{0};
};

} // namespace eip::exec

#endif // EIP_EXEC_PROGRAM_CACHE_HH
