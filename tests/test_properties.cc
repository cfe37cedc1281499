/**
 * @file
 * Additional property-based tests: brute-force cross-checks of the
 * compression capacity rules, history-buffer walk properties under random
 * operation sequences and executor memory-pattern invariants (the
 * workload selection's determinism is checked with the pinned suite,
 * test_trace Workloads.CvpSuiteIsThePinnedSeedSearch).
 */

#include <gtest/gtest.h>

#include <map>

#include "core/dest_compression.hh"
#include "core/history_buffer.hh"
#include "trace/executor.hh"
#include "trace/workloads.hh"
#include "util/bitops.hh"
#include "util/rng.hh"

namespace eip {
namespace {

// ---------------------------------------------------------------------
// Compression: the mode rules cross-checked against a brute-force model.
// ---------------------------------------------------------------------

TEST(CompressionProperty, CapacityMatchesBruteForce)
{
    core::CompressionScheme scheme =
        core::CompressionScheme::virtualScheme();
    // For every (bits-needed set) drawn at random, the array must accept
    // exactly min over dests of maxModeFor(bits) destinations.
    Rng rng(31);
    for (int trial = 0; trial < 300; ++trial) {
        sim::Addr src = 0x40000 + rng.below(1 << 20);
        core::DestinationArray arr(scheme);
        unsigned brute_cap = scheme.maxDests;
        unsigned inserted = 0;
        for (int i = 0; i < 10; ++i) {
            unsigned shift = 1 + static_cast<unsigned>(rng.below(40));
            sim::Addr dst = src ^ (sim::Addr{1} << shift) ^ rng.below(16);
            if (dst == src)
                continue;
            unsigned bits =
                std::max(1u, significantBits(src, dst));
            unsigned dst_cap = scheme.maxModeFor(bits);
            bool accepted = arr.insert(src, dst, /*evict_on_full=*/false);
            if (accepted && arr.find(dst) != nullptr &&
                arr.size() > inserted) {
                ++inserted;
                brute_cap = std::min(brute_cap, dst_cap);
            }
            // Invariant: never more destinations than the most
            // restrictive accepted one allows.
            EXPECT_LE(arr.size(), brute_cap == 0 ? 0 : brute_cap);
        }
    }
}

TEST(CompressionProperty, ModeNeverRelaxesBelowNeed)
{
    core::CompressionScheme scheme =
        core::CompressionScheme::physicalScheme();
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        sim::Addr src = rng.below(1ULL << 40);
        core::DestinationArray arr(scheme);
        for (int i = 0; i < 12; ++i) {
            sim::Addr dst = src ^ (1 + rng.below(1ULL << 30));
            arr.insert(src, dst, rng.chance(0.5));
            arr.dropDeadDestinations();
            for (const auto &d : arr.all())
                EXPECT_GE(arr.bitsPerDest(), d.bitsNeeded);
        }
    }
}

// ---------------------------------------------------------------------
// History buffer: walks always visit strictly older entries.
// ---------------------------------------------------------------------

TEST(HistoryProperty, WalkVisitsMonotonicallyOlderTimestamps)
{
    core::HistoryBuffer hist(16, 20);
    Rng rng(5);
    sim::Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        now += 1 + rng.below(50);
        size_t slot = hist.push(rng.below(4096), now);
        uint64_t last_age = 0;
        bool monotone = true;
        hist.walkBackwards(slot, 16, [&](core::HistoryEntry &e) {
            uint64_t age = hist.age(e.timestamp, now);
            monotone &= age >= last_age;
            last_age = age;
            return false;
        });
        EXPECT_TRUE(monotone) << "at push " << i;
    }
}

TEST(HistoryProperty, GenerationsNeverRepeatPerSlot)
{
    core::HistoryBuffer hist(4, 20);
    std::map<size_t, uint64_t> last_gen;
    for (int i = 0; i < 100; ++i) {
        size_t slot = hist.push(i, i);
        uint64_t gen = hist.at(slot).generation;
        auto it = last_gen.find(slot);
        if (it != last_gen.end()) {
            EXPECT_GT(gen, it->second);
        }
        last_gen[slot] = gen;
    }
}

// ---------------------------------------------------------------------
// Executor memory-pattern invariants.
// ---------------------------------------------------------------------

TEST(ExecutorProperty, StackLoadsArePerSiteStableWithinAFrame)
{
    trace::Workload w = trace::tinyWorkload(3);
    trace::Program prog = trace::buildProgram(w.program);
    trace::ExecutorConfig ec = w.exec;
    trace::Executor exec(prog, ec);

    // For each (pc, call depth) pair, a stack access always reads the
    // same address.
    std::map<std::pair<uint64_t, size_t>, uint64_t> seen;
    int checked = 0;
    for (int i = 0; i < 300000 && checked < 2000; ++i) {
        const trace::Instruction &inst = exec.next();
        if (!inst.isLoad && !inst.isStore)
            continue;
        if (inst.memAddr < ec.stackBase - 64 * ec.frameBytes)
            continue; // not a stack access
        auto key = std::make_pair(inst.pc, exec.callDepth());
        auto it = seen.find(key);
        if (it != seen.end()) {
            EXPECT_EQ(it->second, inst.memAddr) << std::hex << inst.pc;
            ++checked;
        } else {
            seen.emplace(key, inst.memAddr);
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(ExecutorProperty, StreamSitesAdvanceByConstantStride)
{
    trace::Workload w = trace::tinyWorkload(4);
    trace::Program prog = trace::buildProgram(w.program);
    trace::ExecutorConfig ec = w.exec;
    trace::Executor exec(prog, ec);

    std::map<uint64_t, std::vector<uint64_t>> per_site;
    for (int i = 0; i < 200000; ++i) {
        const trace::Instruction &inst = exec.next();
        if (!inst.isLoad && !inst.isStore)
            continue;
        if (inst.memAddr < ec.globalBase ||
            inst.memAddr > ec.globalBase + 2 * ec.dataFootprintBytes)
            continue;
        auto &v = per_site[inst.pc];
        if (v.size() < 6)
            v.push_back(inst.memAddr);
    }
    // Find at least one site with a perfectly constant stride.
    int constant_stride_sites = 0;
    for (const auto &[pc, addrs] : per_site) {
        if (addrs.size() < 4)
            continue;
        int64_t stride = static_cast<int64_t>(addrs[1]) -
                         static_cast<int64_t>(addrs[0]);
        if (stride == 0)
            continue;
        bool constant = true;
        for (size_t i = 2; i < addrs.size(); ++i) {
            constant &= static_cast<int64_t>(addrs[i]) -
                            static_cast<int64_t>(addrs[i - 1]) ==
                        stride;
        }
        constant_stride_sites += constant ? 1 : 0;
    }
    EXPECT_GT(constant_stride_sites, 3);
}

} // namespace
} // namespace eip
