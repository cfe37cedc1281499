#include "prefetch/factory.hh"

#include <array>
#include <functional>

#include "core/entangling.hh"
#include "prefetch/djolt.hh"
#include "prefetch/fnl_mma.hh"
#include "prefetch/lookahead.hh"
#include "prefetch/mana.hh"
#include "prefetch/nextline.hh"
#include "prefetch/pif.hh"
#include "prefetch/rdip.hh"
#include "prefetch/sn4l.hh"
#include "prefetch/stride.hh"
#include "util/panic.hh"

namespace eip::prefetch {

namespace {

using core::EntanglingConfig;
using core::EntanglingVariant;
using Build = std::function<std::unique_ptr<sim::Prefetcher>()>;

/** One id of the table: its constructor and the cache it attaches to. */
struct Entry
{
    std::string id;
    Build build;
    Side side = Side::L1i;
};

/** A constructor of @p P from copies of @p args. */
template <typename P, typename... Args>
Build
build(Args... args)
{
    return [args...] { return std::make_unique<P>(args...); };
}

Build
entangling(EntanglingConfig cfg,
           EntanglingVariant variant = EntanglingVariant::BBEntBBMerge)
{
    cfg.variant = variant;
    return build<core::EntanglingPrefetcher>(cfg);
}

/** Every id except "none", built once: lookups scan it, never rebuild. */
const std::vector<Entry> &
table()
{
    static const std::vector<Entry> entries = [] {
        std::vector<Entry> t = {
            {"nextline", build<NextLinePrefetcher>()},
            {"sn4l", build<Sn4lPrefetcher>()},
            {"mana-2k", build<ManaPrefetcher>(ManaConfig{.entries = 2048})},
            {"mana-4k", build<ManaPrefetcher>(ManaConfig{.entries = 4096})},
            {"mana-8k", build<ManaPrefetcher>(ManaConfig{.entries = 8192})},
            {"rdip", build<RdipPrefetcher>(RdipConfig{})},
            {"djolt", build<DjoltPrefetcher>(DjoltConfig{})},
            {"fnl+mma", build<FnlMmaPrefetcher>(FnlMmaConfig{})},
            {"pif", build<PifPrefetcher>(PifConfig{})},
            {"epi", entangling(EntanglingConfig::presetEpi())},
        };
        // The paper's three sizes, virtual then physical, and the Fig. 11
        // ablation variants at each size.
        const std::pair<const char *, EntanglingConfig (*)(bool)> sizes[] = {
            {"2k", EntanglingConfig::preset2K},
            {"4k", EntanglingConfig::preset4K},
            {"8k", EntanglingConfig::preset8K}};
        for (const char *suffix : {"", "-phys"})
            for (const auto &[size, preset] : sizes)
                t.push_back({std::string("entangling-") + size + suffix,
                             entangling(preset(*suffix != '\0'))});
        const std::pair<const char *, EntanglingVariant> variants[] = {
            {"bb", EntanglingVariant::BB},
            {"ent", EntanglingVariant::Ent},
            {"bbent", EntanglingVariant::BBEnt},
            {"bbentbb", EntanglingVariant::BBEntBB}};
        for (const auto &[prefix, variant] : variants)
            for (const auto &[size, preset] : sizes)
                t.push_back({std::string(prefix) + "-" + size,
                             entangling(preset(false), variant)});

        // Extensions: §III-C1 commit-time training, and §III-C3 split
        // bb/pair storage named by pair-table size, as name() prints it.
        EntanglingConfig commit = EntanglingConfig::preset4K();
        commit.commitTimeTraining = true;
        t.push_back({"entangling-4k-commit", entangling(commit)});
        t.push_back({"entangling-split-1k",
                     entangling(EntanglingConfig::presetSplit())});
        t.push_back({"entangling-split-512",
                     entangling(EntanglingConfig::presetSplit(512, 8192))});
        t.push_back({"entangling-split-2k",
                     entangling(EntanglingConfig::presetSplit(2048, 8192))});

        // The motivation figures: Fig. 2's fixed distances, Fig. 1's oracle.
        for (unsigned d : kLookaheadDistances)
            t.push_back({"lookahead-" + std::to_string(d),
                         build<LookaheadPrefetcher>(d)});
        t.push_back({"lookahead-oracle", build<LookaheadOracle>()});

        t.push_back({"stride", build<StridePrefetcher>(), Side::L1d});
        return t;
    }();
    return entries;
}

const Entry *
find(const std::string &id)
{
    for (const Entry &e : table())
        if (e.id == id)
            return &e;
    return nullptr;
}

} // namespace

std::unique_ptr<sim::Prefetcher>
makePrefetcher(const std::string &id)
{
    if (id == "none")
        return nullptr;
    const Entry *e = find(id);
    if (e == nullptr)
        EIP_FATAL("unknown prefetcher id (see prefetch::prefetcherIds)");
    return e->build();
}

bool
knownPrefetcherId(const std::string &id, Side side)
{
    const Entry *e = find(id);
    return id == "none" || (e != nullptr && e->side == side);
}

const std::vector<std::string> &
prefetcherIds(Side side)
{
    static const auto ids = [] {
        std::vector<std::string> out[] = {{"none"}, {"none"}};
        for (const Entry &e : table())
            out[static_cast<int>(e.side)].push_back(e.id);
        return std::to_array(std::move(out));
    }();
    return ids[static_cast<int>(side)];
}

std::vector<std::string>
mainLineup()
{
    return {"nextline", "sn4l",          "mana-2k",      "mana-4k",
            "rdip",     "entangling-2k", "entangling-4k"};
}

std::vector<std::string>
figure6Lineup()
{
    return {"nextline",      "sn4l",          "mana-2k", "mana-4k",
            "mana-8k",       "rdip",          "djolt",   "fnl+mma",
            "epi",           "entangling-2k", "entangling-4k",
            "entangling-8k"};
}

} // namespace eip::prefetch
