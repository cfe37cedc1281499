/**
 * @file
 * Open-addressing hash map from 64-bit keys to values, for the
 * simulator's per-access shadow state (pending misses, prefetch
 * attribution, page tables, stream cursors). Slots live in two flat
 * arrays — keys with an occupancy flag, and values — so a lookup is a
 * multiply, a mask and a short linear probe over packed keys, and no
 * operation allocates a node. Erase uses backward-shift deletion, so
 * there are no tombstones and probe chains never lengthen with churn.
 *
 * The table doubles when it would pass 3/4 load and never shrinks;
 * clear() keeps the capacity. A vacated slot keeps its moved-from
 * value until the next insert there value-initialises it. There is no
 * iteration: no simulated decision may depend on a hash order.
 */

#ifndef EIP_UTIL_FLAT_MAP_HH
#define EIP_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace eip::util {

/** Default key hash: a Fibonacci multiply folded onto its low bits, so
 *  sequential line and page numbers spread over the table. */
struct MixHash
{
    uint64_t
    operator()(uint64_t key) const
    {
        key *= 0x9E3779B97F4A7C15ULL;
        return key ^ (key >> 32);
    }
};

template <typename V, typename Hash = MixHash>
class FlatMap
{
  public:
    /** A map with room for @p capacity slots before it first grows
     *  (rounded up to a power of two, at least 8). */
    explicit FlatMap(size_t capacity = 16) { reset(capacity); }

    size_t size() const { return size_; }
    /** Slot count (a power of two); grows, never shrinks. */
    size_t capacity() const { return keys_.size(); }

    /** The value stored under @p key, or nullptr. */
    V *
    find(uint64_t key)
    {
        size_t slot = locate(key);
        return slot == kAbsent ? nullptr : &values_[slot];
    }

    /** The value under @p key, value-initialised first when absent
     *  (std::unordered_map::operator[] semantics). */
    V &
    operator[](uint64_t key)
    {
        size_t slot = locate(key);
        if (slot != kAbsent)
            return values_[slot];
        if ((size_ + 1) * 4 > capacity() * 3)
            grow();
        slot = home(key);
        while (keys_[slot].full)
            slot = (slot + 1) & mask_;
        keys_[slot] = Key{key, true};
        values_[slot] = V{};
        ++size_;
        return values_[slot];
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(uint64_t key)
    {
        size_t hole = locate(key);
        if (hole == kAbsent)
            return false;
        // Backward shift: pull each later member of the probe run into
        // the hole unless its home lies cyclically in (hole, slot].
        size_t slot = hole;
        for (;;) {
            slot = (slot + 1) & mask_;
            if (!keys_[slot].full)
                break;
            size_t h = home(keys_[slot].key);
            bool stays = hole <= slot ? (hole < h && h <= slot)
                                      : (hole < h || h <= slot);
            if (stays)
                continue;
            keys_[hole] = keys_[slot];
            values_[hole] = std::move(values_[slot]);
            hole = slot;
        }
        keys_[hole].full = false;
        --size_;
        return true;
    }

    /** Remove every entry; the capacity is kept. */
    void
    clear()
    {
        for (Key &k : keys_)
            k.full = false;
        size_ = 0;
    }

  private:
    struct Key
    {
        uint64_t key = 0;
        bool full = false;
    };

    static constexpr size_t kAbsent = ~size_t{0};

    size_t home(uint64_t key) const { return Hash{}(key) & mask_; }

    size_t
    locate(uint64_t key) const
    {
        // The load cap keeps an empty slot in every table, so the probe
        // terminates.
        for (size_t slot = home(key);; slot = (slot + 1) & mask_) {
            const Key &k = keys_[slot];
            if (!k.full)
                return kAbsent;
            if (k.key == key)
                return slot;
        }
    }

    void
    reset(size_t capacity)
    {
        size_t slots = 8;
        while (slots < capacity)
            slots <<= 1;
        keys_.assign(slots, Key{});
        values_.clear();
        values_.resize(slots);
        mask_ = slots - 1;
        size_ = 0;
    }

    void
    grow()
    {
        std::vector<Key> old_keys = std::move(keys_);
        std::vector<V> old_values = std::move(values_);
        reset(old_keys.size() * 2);
        for (size_t i = 0; i < old_keys.size(); ++i) {
            if (!old_keys[i].full)
                continue;
            size_t slot = home(old_keys[i].key);
            while (keys_[slot].full)
                slot = (slot + 1) & mask_;
            keys_[slot] = old_keys[i];
            values_[slot] = std::move(old_values[i]);
            ++size_;
        }
    }

    std::vector<Key> keys_;
    std::vector<V> values_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace eip::util

#endif // EIP_UTIL_FLAT_MAP_HH
