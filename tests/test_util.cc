/**
 * @file
 * Unit tests for the utility substrate: bit operations, saturating
 * counters, the RNG, histograms, statistics helpers and the table
 * printer.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "util/bitops.hh"
#include "util/flat_map.hh"
#include "util/hash.hh"
#include "util/histogram.hh"
#include "util/lru.hh"
#include "util/rng.hh"
#include "util/saturating_counter.hh"
#include "util/stats_math.hh"
#include "util/table_printer.hh"

namespace eip {
namespace {

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(uint64_t{1} << 63), 63u);
}

TEST(Bitops, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(4097));
}

TEST(Bitops, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(12), 0xfffu);
    EXPECT_EQ(mask(64), ~uint64_t{0});
}

TEST(Bitops, Bits)
{
    EXPECT_EQ(bits(0xabcd, 4, 8), 0xbcu);
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffu);
    EXPECT_EQ(bits(0x1, 0, 1), 1u);
}

TEST(Bitops, XorFoldReducesWidth)
{
    for (uint64_t v : {0x123456789abcdefULL, 0xffffffffffffffffULL, 7ULL}) {
        for (unsigned w : {4u, 10u, 16u}) {
            EXPECT_LE(xorFold(v, w), mask(w));
        }
    }
    // Folding something already narrow is the identity.
    EXPECT_EQ(xorFold(0x3f, 10), 0x3fu);
}

TEST(Bitops, XorFoldDistributesBits)
{
    // Two values differing only above the fold width still fold
    // differently (the high bits participate).
    EXPECT_NE(xorFold(0x10000, 10), xorFold(0x20000, 10));
}

TEST(Bitops, SignificantBits)
{
    EXPECT_EQ(significantBits(5, 5), 0u);
    EXPECT_EQ(significantBits(0, 1), 1u);
    EXPECT_EQ(significantBits(0b1000, 0b0000), 4u);
    EXPECT_EQ(significantBits(0x100, 0x1ff), 8u);
    // Symmetric.
    EXPECT_EQ(significantBits(77, 1234), significantBits(1234, 77));
}

TEST(Bitops, WrappedDistance)
{
    EXPECT_EQ(wrappedDistance(10, 30, 12), 20u);
    // Wrap around a 12-bit clock.
    EXPECT_EQ(wrappedDistance(4090, 5, 12), 11u);
    EXPECT_EQ(wrappedDistance(0, 0, 12), 0u);
}

TEST(SaturatingCounter, SaturatesBothEnds)
{
    SaturatingCounter c(2, 0);
    EXPECT_TRUE(c.zero());
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(SaturatingCounter, StrongThreshold)
{
    SaturatingCounter c(2, 0);
    EXPECT_FALSE(c.strong());
    c.increment(); // 1
    EXPECT_FALSE(c.strong());
    c.increment(); // 2
    EXPECT_TRUE(c.strong());
}

TEST(SaturatingCounter, SetClamps)
{
    SaturatingCounter c(3);
    c.set(100);
    EXPECT_EQ(c.value(), 7u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowAndBetweenBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        uint64_t v = rng.between(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SkewedBelowFavoursSmall)
{
    Rng rng(11);
    uint64_t low = 0, high = 0;
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = rng.skewedBelow(100);
        EXPECT_LT(v, 100u);
        (v < 25 ? low : high) += 1;
    }
    EXPECT_GT(low, high);
}

TEST(Histogram, RecordsAndOverflows)
{
    Histogram h(4);
    h.record(0);
    h.record(3);
    h.record(7); // overflow
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, FractionsAndAverage)
{
    Histogram h(8);
    h.record(2, 3); // weight 3
    h.record(4, 1);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.75);
    EXPECT_DOUBLE_EQ(h.average(), (2.0 * 3 + 4.0) / 4.0);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.average(), 0.0);
}

TEST(StatsMath, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    // Non-positive values are ignored.
    EXPECT_NEAR(geomean({2.0, 8.0, 0.0, -1.0}), 4.0, 1e-12);
}

TEST(StatsMath, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0,
                1e-12);
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(StatsMath, Percentile)
{
    std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Fnv1a, MatchesPublishedVectors)
{
    // Reference values of the 64-bit FNV-1a specification.
    EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    // Chaining through the seed equals hashing the concatenation.
    EXPECT_EQ(util::fnv1a64("bc", util::fnv1a64("a")), util::fnv1a64("abc"));
}

TEST(Fnv1a, Hex64IsFixedWidthLowercase)
{
    EXPECT_EQ(util::hex64(0), "0000000000000000");
    EXPECT_EQ(util::hex64(0xdeadbeefULL), "00000000deadbeef");
    EXPECT_EQ(util::hex64(0xcbf29ce484222325ULL), "cbf29ce484222325");
}

TEST(LruMap, GetRefreshesRecency)
{
    util::LruMap<int, std::string> lru(2);
    lru.put(1, "one");
    lru.put(2, "two");
    ASSERT_NE(lru.get(1), nullptr); // 2 becomes the LRU victim
    lru.put(3, "three");
    EXPECT_EQ(lru.get(2), nullptr);
    ASSERT_NE(lru.get(1), nullptr);
    EXPECT_EQ(*lru.get(1), "one");
    EXPECT_EQ(lru.evictions(), 1u);
    EXPECT_EQ(lru.size(), 2u);
}

TEST(LruMap, WeightedEvictionKeepsMostRecentEntry)
{
    util::LruMap<int, int> lru(10);
    lru.put(1, 10, 4);
    lru.put(2, 20, 4);
    lru.put(3, 30, 4); // 12 > 10: evicts key 1
    EXPECT_EQ(lru.get(1), nullptr);
    EXPECT_EQ(lru.weight(), 8u);

    // An entry bigger than the whole budget still becomes resident:
    // eviction never removes the most recently touched entry.
    lru.put(4, 40, 100);
    ASSERT_NE(lru.get(4), nullptr);
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_EQ(lru.weight(), 100u);
}

TEST(LruMap, ReplacementUpdatesWeightInPlace)
{
    util::LruMap<int, int> lru(10);
    lru.put(1, 10, 3);
    lru.put(1, 11, 7); // same key: replace, no eviction
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_EQ(lru.weight(), 7u);
    EXPECT_EQ(*lru.get(1), 11);
    EXPECT_EQ(lru.evictions(), 0u);
}

TEST(LruMap, CountsHitsAndMissesButNotClears)
{
    util::LruMap<int, int> lru(4);
    lru.put(1, 10);
    EXPECT_NE(lru.get(1), nullptr);
    EXPECT_EQ(lru.get(2), nullptr);
    EXPECT_EQ(lru.hits(), 1u);
    EXPECT_EQ(lru.misses(), 1u);
    lru.clear();
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_EQ(lru.evictions(), 0u); // clear() is not an eviction
    EXPECT_EQ(lru.hits(), 1u);      // history survives the clear
}

/** Random insert/overwrite/erase/find traffic, with occasional clears,
 *  applied to a FlatMap and a std::unordered_map in lock step; after
 *  every operation each key of the universe must agree. */
template <typename Map>
void
runFlatMapDifferential(Map &flat, const std::vector<uint64_t> &universe,
                       uint64_t seed, int ops)
{
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        uint64_t key = universe[rng.below(universe.size())];
        uint64_t roll = rng.below(100);
        if (roll < 50) {
            uint64_t value = rng.next();
            flat[key] = value;
            ref[key] = value;
        } else if (roll < 90) {
            ASSERT_EQ(flat.erase(key), ref.erase(key) == 1) << "op " << i;
        } else if (roll < 99) {
            // operator[] on a missing key value-initialises it.
            uint64_t &slot = flat[key];
            ASSERT_EQ(slot, ref[key]) << "op " << i;
        } else {
            flat.clear();
            ref.clear();
        }
        ASSERT_EQ(flat.size(), ref.size()) << "op " << i;
        for (uint64_t k : universe) {
            const uint64_t *found = flat.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(found != nullptr, it != ref.end())
                << "op " << i << " key " << k;
            if (found != nullptr) {
                ASSERT_EQ(*found, it->second)
                    << "op " << i << " key " << k;
            }
        }
    }
}

TEST(FlatMap, MatchesUnorderedMapAndGrows)
{
    util::FlatMap<uint64_t> flat(8);
    std::vector<uint64_t> universe;
    Rng keys(3);
    for (int i = 0; i < 300; ++i)
        universe.push_back(keys.next());
    // Sequential line numbers, as the simulator's keys mostly are.
    for (uint64_t line = 0x1000; line < 0x1000 + 100; ++line)
        universe.push_back(line);
    runFlatMapDifferential(flat, universe, 11, 6000);
    EXPECT_GT(flat.capacity(), 8u);
    EXPECT_GT(flat.capacity() * 3, flat.size() * 4);
}

/** Homes every key on its low byte, so whole families of keys collide
 *  and the families at 0xFE/0xFF wrap round the end of the table into
 *  the chains homed at slots 0 and 1. */
struct LowByteHash
{
    uint64_t operator()(uint64_t key) const { return key & 0xFF; }
};

TEST(FlatMap, CollidingWrappedChainsSurviveBackwardShift)
{
    util::FlatMap<uint64_t, LowByteHash> flat(8);
    std::vector<uint64_t> universe;
    for (uint64_t i = 0; i < 16; ++i) {
        for (uint64_t low : {0xFEull, 0xFFull, 0x00ull, 0x01ull})
            universe.push_back((i << 8) | low);
    }
    runFlatMapDifferential(flat, universe, 5, 8000);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t;
    t.newRow();
    t.cell(std::string("name"));
    t.cell(std::string("value"));
    t.newRow();
    t.cell(std::string("x"));
    t.cell(uint64_t{42});
    std::string out = t.toString();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    // Header underline present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, NumericFormatting)
{
    TablePrinter t;
    t.newRow();
    t.cell(3.14159, 2);
    t.cell(-7);
    std::string out = t.toString();
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("-7"), std::string::npos);
}

} // namespace
} // namespace eip
