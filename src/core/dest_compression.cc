#include "core/dest_compression.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/panic.hh"

namespace eip::core {

CompressionScheme
CompressionScheme::virtualScheme()
{
    return CompressionScheme{60, 3, 2, 6};
}

CompressionScheme
CompressionScheme::physicalScheme()
{
    return CompressionScheme{44, 2, 2, 4};
}

unsigned
CompressionScheme::maxModeFor(unsigned bits) const
{
    for (unsigned k = maxDests; k >= 1; --k) {
        if (addrBits(k) >= bits)
            return k;
    }
    return 0;
}

DestinationArray::DestinationArray(const CompressionScheme &scheme)
    : scheme_(scheme)
{
    EIP_ASSERT(scheme.maxDests >= 1 && scheme.maxDests <= kMaxDestinations,
               "compression scheme destination limit out of range");
}

namespace {

/** Address bits required to encode @p dst when @p src supplies the rest. */
unsigned
requiredBits(sim::Addr src, sim::Addr dst)
{
    return std::max(1u, significantBits(src, dst));
}

} // namespace

bool
DestinationArray::hasRoomFor(sim::Addr src_line, sim::Addr dst_line) const
{
    unsigned bits = requiredBits(src_line, dst_line);
    unsigned mode_cap = scheme_.maxModeFor(bits);
    if (mode_cap == 0)
        return false; // not encodable at all (too far from the source)
    for (const auto &d : all()) {
        if (d.line == dst_line)
            return true; // refresh, no growth
    }
    // The shared mode after insertion is the most restrictive requirement
    // across all destinations; it is also the slot capacity.
    for (const auto &d : all())
        mode_cap = std::min(mode_cap, scheme_.maxModeFor(d.bitsNeeded));
    return size() + 1 <= mode_cap;
}

bool
DestinationArray::insert(sim::Addr src_line, sim::Addr dst_line,
                         bool evict_on_full)
{
    unsigned bits = requiredBits(src_line, dst_line);
    if (scheme_.maxModeFor(bits) == 0)
        return false;

    // Refresh an existing pair: reset its confidence to the maximum.
    if (Destination *existing = find(dst_line)) {
        existing->confidence.set(existing->confidence.max());
        return true;
    }

    if (!hasRoomFor(src_line, dst_line)) {
        if (!evict_on_full || empty())
            return false;
        // Replace the lowest-confidence destination (paper §III-B1).
        auto victim = std::min_element(
            dests.begin(), dests.begin() + count,
            [](const Destination &a, const Destination &b) {
                return a.confidence.value() < b.confidence.value();
            });
        std::move(victim + 1, dests.begin() + count, victim);
        --count;
        recomputeMode();
        if (!hasRoomFor(src_line, dst_line)) {
            // Still impossible (the new destination alone demands a wide
            // mode that cannot cover the survivors): keep shrinking.
            while (!empty() && !hasRoomFor(src_line, dst_line)) {
                --count;
                recomputeMode();
            }
            if (!hasRoomFor(src_line, dst_line))
                return false;
        }
    }

    Destination d;
    d.line = dst_line;
    d.bitsNeeded = bits;
    d.confidence = SaturatingCounter(scheme_.confBits);
    d.confidence.set(d.confidence.max());
    dests[count++] = d;
    recomputeMode();
    return true;
}

Destination *
DestinationArray::find(sim::Addr dst_line)
{
    for (uint8_t i = 0; i < count; ++i) {
        if (dests[i].line == dst_line)
            return &dests[i];
    }
    return nullptr;
}

void
DestinationArray::dropDeadDestinations()
{
    auto live_end = std::remove_if(dests.begin(), dests.begin() + count,
                                   [](const Destination &d) {
                                       return d.confidence.zero();
                                   });
    auto live = static_cast<uint8_t>(live_end - dests.begin());
    if (live != count) {
        count = live;
        recomputeMode();
    }
}

void
DestinationArray::clear()
{
    count = 0;
    mode_ = 0;
}

void
DestinationArray::recomputeMode()
{
    if (empty()) {
        mode_ = 0;
        return;
    }
    unsigned cap = scheme_.maxDests;
    for (const auto &d : all())
        cap = std::min(cap, scheme_.maxModeFor(d.bitsNeeded));
    EIP_ASSERT(size() <= cap,
               "destination array in an unrepresentable state");
    mode_ = static_cast<uint8_t>(cap);
}

} // namespace eip::core
