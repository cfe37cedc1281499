/**
 * @file
 * Report tables of the figures program (bench/figures.cc): the record a
 * view returns for every table it prints, its fixed-width text form, and
 * the sorted-series layout of the paper's s-curve figures.
 */

#ifndef EIP_HARNESS_REPORT_HH
#define EIP_HARNESS_REPORT_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace eip::harness {

/** Extracts the plotted metric from one run. */
using Metric = std::function<double(const RunResult &)>;

/** One labelled row of a report table. */
struct ReportRow
{
    std::string label;
    std::vector<double> values; ///< one per column
    /** Digits for every cell of this row; -1 keeps the per-column
     *  digits (Table IV prints its geomean row wider than its nJ rows). */
    int digits = -1;
};

/** Structured form of one report table: what figures prints through
 *  TablePrinter and writes, row for row, into the view's eip-bench/v1
 *  artifact. */
struct ReportRecord
{
    std::string title;
    std::string labelHeader = "config"; ///< header of the row-label column
    std::vector<std::string> columns;
    std::vector<int> digits; ///< printed digits, one per column
    std::vector<ReportRow> rows;
};

/** @p record as a TablePrinter table: the header row (label header and
 *  columns), then one row per ReportRow. The title is not printed. */
std::string renderTable(const ReportRecord &record);

/**
 * One series per config, each individually sorted ascending — the
 * layout of the paper's Figures 7-10. Columns are percentiles of the
 * sorted series (min, p10, ..., max) so the curve shape is visible in
 * text form.
 */
ReportRecord sortedSeries(const std::string &title,
                          const std::vector<std::string> &config_names,
                          const std::vector<std::vector<double>> &series);

/** Convenience: collect @p metric over a result set. */
std::vector<double> collect(const std::vector<RunResult> &results,
                            const Metric &metric);

} // namespace eip::harness

#endif // EIP_HARNESS_REPORT_HH
