/**
 * @file
 * Saturating counter, the building block of confidence and branch-prediction
 * state machines.
 */

#ifndef EIP_UTIL_SATURATING_COUNTER_HH
#define EIP_UTIL_SATURATING_COUNTER_HH

#include <cstdint>

#include "util/panic.hh"

namespace eip {

/**
 * An n-bit saturating counter. The paper's confidence counters are 2-bit
 * instances; branch predictors use 2- and 3-bit instances. Four bytes:
 * tables of them (the gshare PHT, Entangled-table destinations) stay
 * dense on the host.
 */
class SaturatingCounter
{
  public:
    SaturatingCounter() = default;

    /**
     * @param num_bits Counter width in bits (1..16).
     * @param initial Initial counter value; clamped to the valid range.
     */
    explicit SaturatingCounter(unsigned num_bits, unsigned initial = 0)
        : maxValue(static_cast<uint16_t>((1u << num_bits) - 1))
    {
        EIP_ASSERT(num_bits >= 1 && num_bits <= 16,
                   "saturating counter width out of range");
        set(initial);
    }

    /** Increment, saturating at the maximum. */
    void
    increment()
    {
        if (value_ < maxValue)
            ++value_;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (value_ > 0)
            --value_;
    }

    /** Reset to a specific value (clamped). */
    void
    set(unsigned v)
    {
        value_ = v > maxValue ? maxValue : static_cast<uint16_t>(v);
    }

    unsigned value() const { return value_; }
    unsigned max() const { return maxValue; }
    bool saturated() const { return value_ == maxValue; }
    bool zero() const { return value_ == 0; }

    /** Taken/confident when in the upper half of the range. */
    bool strong() const { return value_ > maxValue / 2; }

  private:
    uint16_t maxValue = 3;
    uint16_t value_ = 0;
};

} // namespace eip

#endif // EIP_UTIL_SATURATING_COUNTER_HH
