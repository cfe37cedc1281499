/**
 * @file
 * Deterministic virtual-to-physical page mapping. Used for the paper's
 * physical-address experiments (§III-C4 and §IV-E): consecutive virtual
 * pages are generally not consecutive physically, which slightly reduces
 * the coverage of sequential prefetching across page boundaries.
 */

#ifndef EIP_SIM_VMEM_HH
#define EIP_SIM_VMEM_HH

#include "sim/types.hh"
#include "util/flat_map.hh"

namespace eip::sim {

/**
 * Allocates physical frames for virtual pages on first touch, in a
 * deterministic pseudo-random order (seeded). Mappings are stable for the
 * lifetime of the object.
 */
class VirtualMemory
{
  public:
    explicit VirtualMemory(uint64_t seed = 0xF00D) : seed_(seed) {}

    /** Translate a virtual byte address to a physical byte address. */
    Addr
    translate(Addr vaddr)
    {
        Addr vpage = pageAddr(vaddr);
        Addr *frame = pageTable.find(vpage);
        if (frame == nullptr) {
            // Scramble a frame counter through a bijective mixer so frames
            // are unique but non-contiguous (48-bit physical space).
            frame = &pageTable[vpage];
            *frame = scramble(nextFrame++) & ((Addr{1} << 36) - 1);
        }
        return (*frame << kPageBits) | (vaddr & (kPageSize - 1));
    }

    size_t mappedPages() const { return pageTable.size(); }

  private:
    /** splitmix64 finalizer: a bijective 64-bit mixing function. */
    Addr
    scramble(Addr x) const
    {
        x += seed_;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    uint64_t seed_;
    Addr nextFrame = 0x100000; ///< keep frames away from address zero
    util::FlatMap<Addr> pageTable; ///< virtual page -> physical frame
};

} // namespace eip::sim

#endif // EIP_SIM_VMEM_HH
