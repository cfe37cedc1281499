/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator types so the
 * unit test can pin it exactly: percentiles under the ten-beyond rule,
 * the steadiness spread, the honest sampled-MIPS numerator, and the
 * executor busy ratio. Span self time lives in spans.hh.
 */

#ifndef PERFBENCH_ARITH_HH
#define PERFBENCH_ARITH_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Samples ranked strictly above the nearest-rank @p percent-th
 *  percentile of @p n samples: n - ceil(percent * n / 100), in integers
 *  so 99% of 1000 is exactly rank 990. */
inline uint64_t
samplesBeyond(uint64_t n, unsigned percent)
{
    const uint64_t rank = (static_cast<uint64_t>(percent) * n + 99) / 100;
    return n - rank;
}

/** A percentile is reportable only with at least ten samples beyond it
 *  (p99 needs 1000 samples, p90 needs 100). */
inline bool
percentileReportable(uint64_t n, unsigned percent)
{
    return n > 0 && samplesBeyond(n, percent) >= 10;
}

/** Nearest-rank percentile (the value at 1-based rank ceil(p*n/100)).
 *  0 for an empty sample. */
inline double
percentile(std::vector<double> values, unsigned percent)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    uint64_t rank = (static_cast<uint64_t>(percent) * values.size() + 99) / 100;
    rank = std::clamp<uint64_t>(rank, 1, values.size());
    return values[rank - 1];
}

/** Quartiles exactly as Python's statistics.quantiles(values, n=4)
 *  (the default "exclusive" method) computes them. Needs >= 2 values. */
inline std::vector<double>
quartiles(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const int64_t ld = static_cast<int64_t>(values.size());
    const int64_t m = ld + 1;
    std::vector<double> out;
    for (int64_t i = 1; i < 4; ++i) {
        int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
        const int64_t delta = i * m - j * 4;
        out.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                       values[j] * static_cast<double>(delta)) /
                      4.0);
    }
    return out;
}

inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** First quartile, as statistics.quantiles(values, n=4)[0]; the value
 *  itself for one value, 0 for none. */
inline double
lowerQuartile(const std::vector<double> &values)
{
    if (values.size() < 2)
        return values.empty() ? 0.0 : values.front();
    return quartiles(values)[0];
}

/** Steadiness: (Q3 - Q1) / median, 0 with fewer than two samples. */
inline double
spread(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    const double mid = median(values);
    if (mid == 0.0)
        return 0.0;
    const std::vector<double> q = quartiles(values);
    return (q[2] - q[0]) / mid;
}

/** How much slower the host ran than nominal: the mean calibration
 *  chunk time over @p nominalMs. A time divided by it, or a rate
 *  multiplied by it, reads as on the nominal host. 1 without chunks. */
inline double
hostSlowdown(const std::vector<double> &chunkMs, double nominalMs)
{
    if (chunkMs.empty() || !(nominalMs > 0.0))
        return 1.0;
    double sum = 0.0;
    for (double ms : chunkMs)
        sum += ms;
    return sum / static_cast<double>(chunkMs.size()) / nominalMs;
}

/** Instructions a run actually simulated, for host MIPS. A full run
 *  executes warm-up plus measured instructions in detail. A sampled run
 *  covers only what its schedule touched: functionally warmed (the
 *  warm-up included), fast-forwarded and detailed-window instructions;
 *  the tail after the last window is never executed. */
inline uint64_t
simulatedInstructions(bool sampled, uint64_t warmup, uint64_t instructions,
                      uint64_t warmed, uint64_t skipped, uint64_t window)
{
    return sampled ? warmed + skipped + window : warmup + instructions;
}

/** Executor busy ratio: summed cell time over the capacity the batch
 *  held (wall time times worker count). */
inline double
busyRatio(double cellSecondsSum, double wallSeconds, unsigned jobs)
{
    const double capacity = wallSeconds * static_cast<double>(jobs);
    return capacity > 0.0 ? cellSecondsSum / capacity : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_ARITH_HH
