/**
 * @file
 * The host calibration kernel: a fixed miniature cache simulation, a
 * three-level set-associative LRU hierarchy fed by a branchy synthetic
 * fetch stream. It stresses what the simulator stresses (dependent table
 * lookups, unpredictable branches, a few MB of tag state), so its time
 * follows the host's speed for the simulator, which neither a dependent
 * integer chain nor a DRAM pointer chase does. It is the benchmark's own
 * code and does not change with the simulator.
 */

#include <cstdint>
#include <vector>

#include "bench.hh"
#include "spans.hh"

namespace perfbench {

namespace {

class TagArray
{
  public:
    TagArray(uint32_t sets, uint32_t ways)
        : sets_(sets), ways_(ways), tags_(size_t{sets} * ways, ~0ull),
          stamps_(size_t{sets} * ways, 0)
    {}

    bool
    access(uint64_t line)
    {
        uint64_t *tags = &tags_[(line % sets_) * ways_];
        uint32_t *stamps = &stamps_[(line % sets_) * ways_];
        ++clock_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (tags[w] == line) {
                stamps[w] = clock_;
                return true;
            }
        }
        uint32_t victim = 0;
        for (uint32_t w = 1; w < ways_; ++w)
            if (stamps[w] < stamps[victim])
                victim = w;
        tags[victim] = line;
        stamps[victim] = clock_;
        return false;
    }

  private:
    uint32_t sets_;
    uint32_t ways_;
    std::vector<uint64_t> tags_;
    std::vector<uint32_t> stamps_;
    uint32_t clock_ = 0;
};

/** Steps of one chunk: a few milliseconds on a current server core. */
constexpr int kChunkSteps = 60000;

volatile uint64_t gSink = 0;

} // namespace

double
calibrationChunkMs()
{
    static TagArray l1(64, 8), l2(2048, 16), llc(32768, 16);
    static std::vector<uint16_t> counters(1u << 14, 1);

    const uint64_t t0 = nowNs();
    uint64_t x = 88172645463325252ull;
    uint64_t pc = 0;
    uint64_t hits = 0;
    for (int i = 0; i < kChunkSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint16_t &counter = counters[(pc >> 2) & (counters.size() - 1)];
        if ((x & 7) < 3) {
            pc += (x >> 8) & 0xffff;
            counter += counter < 3;
        } else {
            pc += 4;
            counter -= counter > 0;
        }
        pc &= 0x3fffff;
        const uint64_t line = (0x400000 + pc) >> 6;
        if (l1.access(line))
            ++hits;
        else if (!l2.access(line))
            hits += llc.access(line);
    }
    gSink = gSink + hits;
    return static_cast<double>(nowNs() - t0) / 1e6;
}

} // namespace perfbench
