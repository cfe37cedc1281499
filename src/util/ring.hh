/**
 * @file
 * Fixed-capacity FIFO ring buffer with a std::deque-compatible subset API
 * (push_back / pop_front / front / back / operator[] / iteration in
 * insertion order). The simulator's bounded pipeline queues (FTQ, ROB,
 * prefetch queue) are capacity-limited by construction, so a deque's
 * segmented allocation buys nothing — a Ring never allocates after
 * construction and indexes with a power-of-two mask.
 *
 * A full Ring rejects pushes: exceeding the capacity is a simulator bug
 * (the occupancy bound was checked by the caller), so push asserts.
 * Overwrite-oldest history is pop_front() before push_back() when full.
 */

#ifndef EIP_UTIL_RING_HH
#define EIP_UTIL_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "util/panic.hh"

namespace eip::util {

template <typename T>
class Ring
{
  public:
    /** A ring holding at most @p capacity elements (>= 1). Storage is
     *  rounded up to a power of two for mask indexing. */
    explicit Ring(size_t capacity)
        : cap_(capacity)
    {
        EIP_ASSERT(capacity >= 1, "ring capacity must be positive");
        size_t storage = 1;
        while (storage < capacity)
            storage <<= 1;
        mask_ = storage - 1;
        slots_.resize(storage);
    }

    size_t size() const { return count_; }
    size_t capacity() const { return cap_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == cap_; }

    /** Element @p i in insertion order (0 = oldest), like deque. */
    T &operator[](size_t i)
    {
        EIP_DASSERT(i < count_, "ring index out of range");
        return slots_[(head_ + i) & mask_];
    }
    const T &operator[](size_t i) const
    {
        EIP_DASSERT(i < count_, "ring index out of range");
        return slots_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[count_ - 1]; }
    const T &back() const { return (*this)[count_ - 1]; }

    void
    push_back(const T &value)
    {
        pushSlot() = value;
    }

    void
    push_back(T &&value)
    {
        pushSlot() = std::move(value);
    }

    /**
     * Advance the tail and return the new slot *as-is*: its contents are
     * whatever a previous occupant left behind, and the caller must
     * reset every field. In exchange, slot-owned heap capacity (e.g. a
     * member std::vector's allocation) is reused instead of reallocated
     * — the reason the hot FTQ path uses this instead of push_back.
     */
    T &
    pushSlot()
    {
        EIP_ASSERT(count_ < cap_, "ring overflow");
        T &slot = slots_[(head_ + count_) & mask_];
        ++count_;
        return slot;
    }

    /** Drop the oldest element. The slot is not destroyed (its heap
     *  capacity stays for reuse by a later pushSlot). */
    void
    pop_front()
    {
        EIP_DASSERT(count_ > 0, "pop_front on empty ring");
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /** Forward iterator over the live elements in insertion order. */
    template <typename RingT, typename ValueT>
    class Iter
    {
      public:
        Iter(RingT *ring, size_t pos) : ring_(ring), pos_(pos) {}
        ValueT &operator*() const { return (*ring_)[pos_]; }
        ValueT *operator->() const { return &(*ring_)[pos_]; }
        Iter &operator++()
        {
            ++pos_;
            return *this;
        }
        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }

      private:
        RingT *ring_;
        size_t pos_;
    };

    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, count_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, count_); }

  private:
    size_t cap_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t count_ = 0;
    std::vector<T> slots_;
};

} // namespace eip::util

#endif // EIP_UTIL_RING_HH
