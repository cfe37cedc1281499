/**
 * @file
 * Compressed destination arrays of the Entangled table (paper §III-B3 and
 * Tables I/II).
 *
 * An entry's destinations share one encoding mode. Mode k (1-based) packs k
 * destinations into a fixed payload; each destination gets
 * floor(payload / k) - confBits address bits plus a confidence counter. A
 * destination stores the low bits of its line address starting at the most
 * significant bit that differs from the source — the high bits are
 * reconstructed from the source address at prefetch time.
 *
 * With the paper's virtual parameters (60-bit payload, 2-bit confidence,
 * up to 6 destinations) the address bits per mode are
 * {58, 28, 18, 13, 10, 8} (Table I); with the physical parameters (44-bit
 * payload, up to 4) they are {42, 20, 12, 9} (Table II).
 */

#ifndef EIP_CORE_DEST_COMPRESSION_HH
#define EIP_CORE_DEST_COMPRESSION_HH

#include <array>
#include <cstdint>
#include <span>

#include "sim/types.hh"
#include "util/saturating_counter.hh"

namespace eip::core {

/** Compression geometry: payload width and destination limit. */
struct CompressionScheme
{
    unsigned payloadBits = 60; ///< bits shared by all destinations
    unsigned modeBits = 3;     ///< bits spent on the mode field
    unsigned confBits = 2;     ///< confidence counter width
    unsigned maxDests = 6;     ///< highest mode

    /** Table I / Table II presets. */
    static CompressionScheme virtualScheme();
    static CompressionScheme physicalScheme();

    /** Address bits available per destination in mode @p k (1-based). */
    unsigned
    addrBits(unsigned k) const
    {
        return payloadBits / k - confBits;
    }

    /**
     * The largest mode (destination capacity) whose per-destination width
     * still holds @p bits address bits, or 0 when even mode 1 cannot.
     * A far-away destination thus forces a small mode (few slots); nearby
     * destinations allow mode maxDests.
     */
    unsigned maxModeFor(unsigned bits) const;

    /** Total storage of one destination array including the mode field. */
    unsigned totalBits() const { return payloadBits + modeBits; }
};

/** One logical destination: a line address delta plus confidence. */
struct Destination
{
    sim::Addr line = 0;     ///< full reconstructed line address
    uint32_t bitsNeeded = 0; ///< address bits required relative to the src
    SaturatingCounter confidence;
};

/** Most destinations any scheme packs into one entry (Table I's mode 6). */
inline constexpr unsigned kMaxDestinations = 6;

/**
 * A destination array constrained by a CompressionScheme. The array tracks
 * the current mode; inserting a destination that needs more address bits
 * than the current mode provides forces a larger mode (fewer slots), which
 * may require evicting low-confidence destinations. Removing destinations
 * recomputes the mode (paper: "upon the eviction of a dst-entangled we
 * re-compute the mode"). The destinations are stored inline, like the
 * entry's fixed payload in hardware.
 */
class DestinationArray
{
  public:
    explicit DestinationArray(const CompressionScheme &scheme);

    /**
     * Insert (or refresh) destination @p dst_line for source @p src_line.
     * New pairs start at maximum confidence. When the array is full at the
     * required mode and @p evict_on_full is set, the lowest-confidence
     * destination is replaced; otherwise the insert is rejected.
     *
     * @return true when the destination is present on return.
     */
    bool insert(sim::Addr src_line, sim::Addr dst_line, bool evict_on_full);

    /** Would insert() succeed without evicting a destination? */
    bool hasRoomFor(sim::Addr src_line, sim::Addr dst_line) const;

    /** Find the destination equal to @p dst_line, or nullptr. */
    Destination *find(sim::Addr dst_line);

    /** Drop destinations whose confidence reached zero; recompute mode. */
    void dropDeadDestinations();

    /** Remove all destinations. */
    void clear();

    std::span<const Destination> all() const { return {dests.data(), count}; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    unsigned mode() const { return mode_; }
    const CompressionScheme &scheme() const { return scheme_; }

    /** Address bits the current mode grants each destination. */
    unsigned
    bitsPerDest() const
    {
        return scheme_.addrBits(mode_ == 0 ? 1 : mode_);
    }

  private:
    /** Recompute the minimal mode covering all current destinations. */
    void recomputeMode();

    CompressionScheme scheme_;
    std::array<Destination, kMaxDestinations> dests;
    uint8_t count = 0;
    uint8_t mode_ = 0; ///< 0 = empty array
};

} // namespace eip::core

#endif // EIP_CORE_DEST_COMPRESSION_HH
