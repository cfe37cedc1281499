/**
 * @file
 * Content-addressed result cache: rendered eip-run/v1 artifacts keyed
 * by harness::resultCacheKey (build id + canonical config + canonical
 * spec + workload identity). Because artifacts are byte-deterministic
 * and timing-free, a cached body is indistinguishable from a fresh
 * simulation — serving it is correct by construction, and the warm-path
 * tests prove it with a byte-level diff.
 *
 * Capacity is bounded in artifact bytes (not entry count: one sampled
 * fig6 artifact is ~100x a tiny smoke artifact) with LRU eviction via
 * util::LruMap.
 */

#ifndef EIP_SERVE_RESULT_CACHE_HH
#define EIP_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "util/lru.hh"

namespace eip::obs {
class CounterRegistry;
}

namespace eip::serve {

class ResultCache
{
  public:
    explicit ResultCache(uint64_t capacity_bytes);

    /** Whether @p key is resident, counting one hit or miss and
     *  refreshing its recency: the submit probe. Copies nothing. */
    bool lookup(const std::string &key);

    /** A copy of the artifact under @p key, if still resident, without
     *  counting a lookup or refreshing its recency: the fetch read. */
    std::optional<std::string> peek(const std::string &key) const;

    /** Store @p artifact under @p key, evicting least-recently-served
     *  entries once the byte budget is exceeded. */
    void put(const std::string &key, std::string artifact);

    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t evictions() const;
    uint64_t entries() const;
    /** Current artifact bytes resident. */
    uint64_t bytes() const;

    /** Register <prefix>.hits/.misses/.evictions/.entries/.bytes with
     *  @p registry — the same eviction-stat vocabulary as
     *  exec::ProgramCache::registerStats. */
    void registerStats(obs::CounterRegistry &registry,
                       const std::string &prefix) const;

  private:
    mutable std::mutex mutex_;
    util::LruMap<std::string, std::string> artifacts_;
};

} // namespace eip::serve

#endif // EIP_SERVE_RESULT_CACHE_HH
