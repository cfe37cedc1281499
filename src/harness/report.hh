/**
 * @file
 * Report helpers shared by the figure/table benches: sorted per-workload
 * series (the paper's s-curve figures) and percentile summaries.
 */

#ifndef EIP_HARNESS_REPORT_HH
#define EIP_HARNESS_REPORT_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "util/table_printer.hh"

namespace eip::harness {

/** Extracts the plotted metric from one run. */
using Metric = std::function<double(const RunResult &)>;

/** Structured copy of one printed report table: the title, one row per
 *  config, one column per percentile point or category. Kept in an
 *  in-process log (reportLog) so tests and artifact writers can read
 *  exactly what a bench printed without parsing stdout. */
struct ReportRecord
{
    std::string title;
    std::vector<std::string> configs;
    std::vector<std::string> columns;
    std::vector<std::vector<double>> cells; ///< [config][column]
};

/** Every table printed since start-up (or the last clearReportLog). */
const std::vector<ReportRecord> &reportLog();
void clearReportLog();

/**
 * Print one series per config, each individually sorted ascending — the
 * layout of the paper's Figures 7-10. Rows are percentiles of the sorted
 * series (min, p10, ..., max) so the curve shape is visible in text form.
 */
void printSortedSeries(const std::string &title,
                       const std::vector<std::string> &config_names,
                       const std::vector<std::vector<double>> &series);

/** Convenience: collect @p metric over a result set. */
std::vector<double> collect(const std::vector<RunResult> &results,
                            const Metric &metric);

/** Per-category arithmetic mean of @p metric (Fig. 12-15 layout). */
void printPerCategory(const std::string &title,
                      const std::vector<std::string> &config_names,
                      const std::vector<std::vector<RunResult>> &results,
                      const Metric &metric);

} // namespace eip::harness

#endif // EIP_HARNESS_REPORT_HH
