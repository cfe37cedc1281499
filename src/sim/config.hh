/**
 * @file
 * Simulator configuration (the paper's Table III, Sunny Cove-class). All
 * sizes that the paper states explicitly — 32KB/8-way L1I (512 lines),
 * 10-entry L1I MSHR, 32-entry prefetch queue, 4-cycle L1I latency — are the
 * defaults here.
 */

#ifndef EIP_SIM_CONFIG_HH
#define EIP_SIM_CONFIG_HH

#include <cstdint>
#include <string>

namespace eip::sim {

/** Cache replacement policies. */
enum class ReplacementPolicy : uint8_t
{
    Lru,    ///< least recently used (default)
    Fifo,   ///< allocation order
    Random, ///< pseudo-random victim
    Srrip,  ///< static re-reference interval prediction (2-bit RRPV)
};

/** Configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint32_t sizeBytes = 32 * 1024;
    uint32_t ways = 8;
    uint32_t hitLatency = 4;    ///< cycles from access to data
    uint32_t mshrEntries = 10;  ///< 0 = unlimited
    uint32_t pqEntries = 32;    ///< prefetch queue depth (0 = none)
    uint32_t pqIssuePerCycle = 2;
    /** MSHR entries prefetches may never occupy (demand-reserved), so a
     *  burst of prefetches cannot block demand misses. */
    uint32_t pfMshrReserve = 2;
    bool idealHit = false;      ///< model a perfect cache (ideal prefetcher)
    ReplacementPolicy replacement = ReplacementPolicy::Lru;

    uint32_t sets() const { return sizeBytes / 64 / ways; }
    uint32_t lines() const { return sizeBytes / 64; }
};

/** Whole-system configuration. */
struct SimConfig
{
    // Core (seven-stage decoupled front-end OoO, Sunny Cove-like).
    uint32_t fetchWidth = 6;      ///< instructions fetched per cycle
    uint32_t predictWidth = 6;    ///< instructions predicted per cycle
    uint32_t retireWidth = 8;
    uint32_t robEntries = 352;
    uint32_t ftqEntries = 48;     ///< decoupling queue (instructions)
    uint32_t backendDepth = 6;    ///< decode..execute pipeline stages
    uint32_t decodeResteerPenalty = 5;   ///< BTB miss, direct target fixed at decode
    uint32_t executeFlushPenalty = 14;   ///< mispredict detected at execute

    // Branch prediction.
    enum class Predictor : uint8_t { Gshare, Perceptron };
    Predictor predictor = Predictor::Gshare;
    uint32_t gshareBits = 16;     ///< log2 of PHT entries
    uint32_t perceptronRows = 1024;
    uint32_t perceptronHistory = 24;
    uint32_t btbEntries = 8192;
    uint32_t btbWays = 8;
    uint32_t rasEntries = 64;
    uint32_t itcEntries = 4096;   ///< indirect target cache

    // Memory hierarchy (designated initializers: unnamed fields keep
    // their CacheConfig defaults, e.g. pfMshrReserve = 2).
    CacheConfig l1i{.name = "L1I", .sizeBytes = 32 * 1024, .ways = 8,
                    .hitLatency = 4, .mshrEntries = 10, .pqEntries = 32,
                    .pqIssuePerCycle = 2};
    CacheConfig l1d{.name = "L1D", .sizeBytes = 48 * 1024, .ways = 12,
                    .hitLatency = 5, .mshrEntries = 16, .pqEntries = 16,
                    .pqIssuePerCycle = 1};
    CacheConfig l2{.name = "L2", .sizeBytes = 512 * 1024, .ways = 8,
                   .hitLatency = 14, .mshrEntries = 32, .pqEntries = 32,
                   .pqIssuePerCycle = 1};
    CacheConfig llc{.name = "LLC", .sizeBytes = 2 * 1024 * 1024, .ways = 16,
                    .hitLatency = 42, .mshrEntries = 64, .pqEntries = 0,
                    .pqIssuePerCycle = 0};
    uint32_t dramLatency = 220;
    uint32_t dramJitter = 80;     ///< extra row-miss latency (randomized)

    /**
     * Model wrong-path execution (paper §III-C1 / future work): after a
     * mispredicted branch the front-end keeps fetching down the predicted
     * (wrong) path until the branch resolves, polluting the L1I and — by
     * default — the prefetcher's training. ChampSim (and therefore the
     * paper's evaluation) does not model this; it is off by default.
     */
    bool modelWrongPath = false;
    uint32_t wrongPathLinesPerCycle = 1;

    // Address space seen by the L1I and its prefetcher (paper §III-C4/IV-E).
    bool physicalL1I = false;
    uint64_t vmemSeed = 0xF00D;

    /** Larger-L1I comparison points of Fig. 6 (keep 4-cycle latency). */
    void
    enlargeL1i(uint32_t size_kb)
    {
        l1i.sizeBytes = size_kb * 1024;
        l1i.ways = size_kb / 4; // 64KB -> 16 ways, 96KB -> 24 ways
    }

    /** Human-readable configuration dump (Table III). */
    std::string describe() const;
};

} // namespace eip::sim

#endif // EIP_SIM_CONFIG_HH
