/**
 * @file
 * Unit tests of the benchmark's own arithmetic: the percentile rule, the
 * steadiness quartiles, the honest sampled-MIPS numerator, span self
 * time and the executor busy ratio.
 */

#include <gtest/gtest.h>

#include "arith.hh"
#include "spans.hh"

using namespace perfbench;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(Percentile, TenSamplesBeyondRule)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_TRUE(percentileReportable(1000, 99));
    EXPECT_FALSE(percentileReportable(999, 99));
    EXPECT_TRUE(percentileReportable(100, 90));
    EXPECT_FALSE(percentileReportable(99, 90));
    EXPECT_TRUE(percentileReportable(20, 50));
    EXPECT_FALSE(percentileReportable(19, 50));
    EXPECT_FALSE(percentileReportable(0, 50));
}

TEST(Percentile, NearestRankLeavesExactlyTheCountedSamplesAbove)
{
    const std::vector<double> v = oneTo(1000);
    EXPECT_EQ(percentile(v, 99), 990.0);
    EXPECT_EQ(percentile(v, 50), 500.0);
    EXPECT_EQ(percentile(oneTo(100), 90), 90.0);
    EXPECT_EQ(percentile({7.0}, 99), 7.0);
    EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Spread, MatchesPythonStatisticsQuantiles)
{
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    const std::vector<double> q = quartiles(oneTo(10));
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    const std::vector<double> two = quartiles({2.0, 1.0});
    EXPECT_DOUBLE_EQ(two[0], 0.75);
    EXPECT_DOUBLE_EQ(two[2], 2.25);
    EXPECT_DOUBLE_EQ(spread(oneTo(10)), (8.25 - 2.75) / 5.5);
    EXPECT_EQ(spread({3.0}), 0.0);
}

TEST(LowerQuartile, FirstOfPythonQuartiles)
{
    EXPECT_DOUBLE_EQ(lowerQuartile(oneTo(10)), 2.75);
    // Slow windows above the first quartile do not move it.
    EXPECT_DOUBLE_EQ(lowerQuartile({0.4, 0.4, 0.4, 0.4, 9.0, 9.0, 9.0}),
                     0.4);
    EXPECT_EQ(lowerQuartile({0.5}), 0.5);
    EXPECT_EQ(lowerQuartile({}), 0.0);
}

TEST(HostSlowdown, MeanChunkOverNominal)
{
    EXPECT_DOUBLE_EQ(hostSlowdown({3.0, 4.0, 5.0}, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(hostSlowdown({}, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(hostSlowdown({3.0}, 0.0), 1.0);
}

TEST(SampledMips, HonestNumeratorCountsOnlyWhatTheScheduleRan)
{
    // Full run: warm-up plus measured instructions, all detailed.
    EXPECT_EQ(simulatedInstructions(false, 100, 1000, 7, 8, 9), 1100u);
    // Sampled run: warmed + skipped + window; the budget's unexecuted
    // tail and the nominal warm-up field do not count.
    EXPECT_EQ(simulatedInstructions(true, 100, 1000000, 300, 600000, 50),
              600350u);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    std::vector<Span> spans(5);
    spans[0] = {"root", 0, 100, -1, 1};
    spans[1] = {"a", 10, 40, 0, 1};
    spans[2] = {"b", 30, 60, 0, 2}; // overlaps a on another thread
    spans[3] = {"c", 90, 120, 0, 2}; // runs past the root: clipped
    spans[4] = {"a.child", 15, 20, 1, 1};
    const std::vector<uint64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100u - 50u - 10u); // children cover [10,60]+[90,100]
    EXPECT_EQ(self[1], 25u);
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 30u);
    EXPECT_EQ(self[4], 5u);
}

TEST(SelfTime, RecorderNestsByThreadAndExplicitParent)
{
    SpanRecorder r;
    const int64_t root = r.open("root");
    const int64_t child = r.open("child");
    r.close(child);
    const int64_t adopted = r.open("adopted", root);
    r.close(adopted);
    r.close(root);
    const std::vector<Span> spans = r.spans();
    EXPECT_EQ(spans[1].parent, root);
    EXPECT_EQ(spans[2].parent, root);
    EXPECT_EQ(spans[0].parent, -1);
    const std::string json = r.chromeTraceJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"adopted\""), std::string::npos);
}

TEST(BusyRatio, CellTimeOverWallTimesJobs)
{
    EXPECT_DOUBLE_EQ(busyRatio(3.0, 2.0, 2), 0.75);
    EXPECT_DOUBLE_EQ(busyRatio(2.0, 2.0, 1), 1.0);
    EXPECT_EQ(busyRatio(1.0, 0.0, 2), 0.0);
}
