/**
 * @file
 * Prefetcher factory: the one table of prefetcher ids that every surface
 * (eipsim, eipd, the figures driver) accepts, the constructor behind each
 * id, and the standard line-ups used by the figures.
 */

#ifndef EIP_PREFETCH_FACTORY_HH
#define EIP_PREFETCH_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/prefetcher_api.hh"

namespace eip::prefetch {

/** The cache a prefetcher id attaches to. */
enum class Side
{
    L1i,
    L1d,
};

/**
 * Create a prefetcher by id. Ids are exact; prefetcherIds() lists them
 * per side:
 *   none, nextline, sn4l, mana-{2k,4k,8k}, rdip, djolt, fnl+mma, pif, epi,
 *   entangling-{2k,4k,8k}[-phys] (-phys: physical-address compression),
 *   the Fig. 11 ablation variants {bb,ent,bbent,bbentbb}-{2k,4k,8k}, the
 *   extensions entangling-4k-commit (§III-C1 commit-time training) and
 *   entangling-split-{1k,512,2k} (§III-C3 split bb/pair storage, named
 *   by their pair-table size), the motivation figures' lookahead-<d>
 *   (Fig. 2, d in kLookaheadDistances) and lookahead-oracle (Fig. 1),
 *   and the L1D prefetcher stride.
 * Returns nullptr for "none". Aborts on any other id; validate untrusted
 * input with knownPrefetcherId first. Cache configurations ("ideal",
 * larger L1Is) are not prefetchers: harness::knownConfigId owns them.
 */
std::unique_ptr<sim::Prefetcher> makePrefetcher(const std::string &id);

/** Is @p id a table id for @p side ("none" is one for both)? */
bool knownPrefetcherId(const std::string &id, Side side = Side::L1i);

/** Every id of @p side, "none" first, in table order (L1D: none,
 *  stride). */
const std::vector<std::string> &prefetcherIds(Side side = Side::L1i);

/** The sub-64KB line-up used by the per-workload figures (Fig. 7-10). */
std::vector<std::string> mainLineup();

/** Every point of the IPC-vs-storage figure (Fig. 6), except the larger
 *  L1I configurations and Ideal, which are cache configs. */
std::vector<std::string> figure6Lineup();

} // namespace eip::prefetch

#endif // EIP_PREFETCH_FACTORY_HH
