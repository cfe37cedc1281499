/**
 * @file
 * Tests for the report records (sorted series, text rendering) and
 * RunResult bookkeeping details.
 */

#include <gtest/gtest.h>

#include "harness/report.hh"

namespace eip::harness {
namespace {

RunResult
makeResult(const std::string &workload, const std::string &category,
           double ipc_times_100)
{
    RunResult r;
    r.workload = workload;
    r.category = category;
    r.stats.instructions = static_cast<uint64_t>(ipc_times_100);
    r.stats.cycles = 100;
    return r;
}

TEST(Report, SortedSeriesRendersConfigsAndPercentiles)
{
    std::vector<std::string> names{"alpha", "beta"};
    std::vector<std::vector<double>> series{
        {1.0, 3.0, 2.0},
        {5.0, 4.0, 6.0},
    };
    ReportRecord record = sortedSeries("demo title", names, series);
    std::string out = renderTable(record);

    EXPECT_EQ(record.title, "demo title");
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("beta"), std::string::npos);
    // Percentile headers and min/max of each series.
    for (const char *col : {"min", "p50", "max"})
        EXPECT_NE(out.find(col), std::string::npos) << col;
    EXPECT_NE(out.find("1.000"), std::string::npos);
    EXPECT_NE(out.find("6.000"), std::string::npos);
}

TEST(Report, RenderUsesColumnDigitsUnlessTheRowOverrides)
{
    ReportRecord record;
    record.labelHeader = "metric";
    record.columns = {"a", "b"};
    record.digits = {1, 3};
    record.rows.push_back({"plain", {1.5, 2.5}});
    record.rows.push_back({"wide", {1.5, 2.5}, 4});
    EXPECT_EQ(renderTable(record), "metric  a       b\n"
                                   "----------------------\n"
                                   "plain   1.5     2.500\n"
                                   "wide    1.5000  2.5000\n");
}

TEST(Report, CollectPreservesOrder)
{
    std::vector<RunResult> results{makeResult("a", "x", 100),
                                   makeResult("b", "x", 200),
                                   makeResult("c", "x", 300)};
    auto values = collect(results, [](const RunResult &r) {
        return r.stats.ipc();
    });
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(values[0], 1.0);
    EXPECT_DOUBLE_EQ(values[2], 3.0);
}

} // namespace
} // namespace eip::harness
