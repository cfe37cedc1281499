/**
 * @file
 * Weight-bounded LRU map — the shared eviction core of the two
 * memoization layers: exec::ProgramCache (weight 1 per entry, capacity
 * = entry count) and serve::ResultCache (weight = artifact bytes,
 * capacity = cache budget in bytes). Both therefore speak one
 * eviction-stat vocabulary: hits, misses, evictions, weight.
 *
 * Not thread-safe; callers serialize access (both caches wrap it in a
 * mutex). Eviction never removes the most-recently-touched entry, so a
 * single entry heavier than the whole capacity stays resident until
 * something newer displaces it — refusing it would turn an oversized
 * artifact into a permanent miss loop.
 */

#ifndef EIP_UTIL_LRU_HH
#define EIP_UTIL_LRU_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/panic.hh"

namespace eip::util {

template <typename Key, typename Value>
class LruMap
{
  public:
    explicit LruMap(uint64_t capacity)
        : capacity_(capacity)
    {
        EIP_ASSERT(capacity > 0, "LruMap needs a positive capacity");
    }

    /** Value for @p key (refreshed to most-recently-used), or nullptr.
     *  Counts one hit or one miss. */
    Value *
    get(const Key &key)
    {
        auto it = index_.find(key);
        if (it == index_.end()) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->value;
    }

    /** Value for @p key, or nullptr, without counting a hit or miss
     *  or refreshing its recency: a read that is not a lookup. */
    const Value *
    peek(const Key &key) const
    {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &it->second->value;
    }

    /** Insert or replace @p key (becomes most-recently-used), then
     *  evict least-recently-used entries while over capacity. */
    void
    put(const Key &key, Value value, uint64_t weight = 1)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            weight_ -= it->second->weight;
            it->second->value = std::move(value);
            it->second->weight = weight;
            weight_ += weight;
            order_.splice(order_.begin(), order_, it->second);
        } else {
            order_.push_front(Entry{key, std::move(value), weight});
            index_.emplace(key, order_.begin());
            weight_ += weight;
        }
        evictOverCapacity();
    }

    /** Shrink (or grow) the capacity; shrinking evicts immediately. */
    void
    setCapacity(uint64_t capacity)
    {
        EIP_ASSERT(capacity > 0, "LruMap needs a positive capacity");
        capacity_ = capacity;
        evictOverCapacity();
    }

    /** Drop everything without counting evictions (a reset, not
     *  capacity pressure). */
    void
    clear()
    {
        order_.clear();
        index_.clear();
        weight_ = 0;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }
    uint64_t weight() const { return weight_; }
    uint64_t capacity() const { return capacity_; }
    size_t size() const { return order_.size(); }

  private:
    struct Entry
    {
        Key key;
        Value value;
        uint64_t weight;
    };

    void
    evictOverCapacity()
    {
        while (weight_ > capacity_ && order_.size() > 1) {
            const Entry &victim = order_.back();
            weight_ -= victim.weight;
            index_.erase(victim.key);
            order_.pop_back();
            ++evictions_;
        }
    }

    uint64_t capacity_;
    uint64_t weight_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    std::list<Entry> order_; ///< most-recently-used first
    std::unordered_map<Key, typename std::list<Entry>::iterator> index_;
};

} // namespace eip::util

#endif // EIP_UTIL_LRU_HH
