#include "harness/report.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/stats_math.hh"

namespace eip::harness {

namespace {
std::vector<ReportRecord> report_log;
} // namespace

const std::vector<ReportRecord> &
reportLog()
{
    return report_log;
}

void
clearReportLog()
{
    report_log.clear();
}

std::vector<double>
collect(const std::vector<RunResult> &results, const Metric &metric)
{
    std::vector<double> out;
    out.reserve(results.size());
    for (const auto &r : results)
        out.push_back(metric(r));
    return out;
}

void
printSortedSeries(const std::string &title,
                  const std::vector<std::string> &config_names,
                  const std::vector<std::vector<double>> &series)
{
    std::printf("%s\n", title.c_str());
    static const std::pair<const char *, double> kPoints[] = {
        {"min", 0.0},  {"p10", 0.10}, {"p25", 0.25}, {"p50", 0.50},
        {"p75", 0.75}, {"p90", 0.90}, {"max", 1.0},
    };

    ReportRecord record;
    record.title = title;
    record.configs = config_names;

    TablePrinter table;
    table.newRow();
    table.cell(std::string("config"));
    for (const auto &[label, q] : kPoints) {
        (void)q;
        table.cell(std::string(label));
        record.columns.push_back(label);
    }
    for (size_t c = 0; c < config_names.size(); ++c) {
        table.newRow();
        table.cell(config_names[c]);
        record.cells.emplace_back();
        for (const auto &[label, q] : kPoints) {
            (void)label;
            double value = percentile(series[c], q);
            table.cell(value, 3);
            record.cells.back().push_back(value);
        }
    }
    table.print();
    report_log.push_back(std::move(record));
}

void
printPerCategory(const std::string &title,
                 const std::vector<std::string> &config_names,
                 const std::vector<std::vector<RunResult>> &results,
                 const Metric &metric)
{
    std::printf("%s\n", title.c_str());

    // Stable category order across all runs.
    std::vector<std::string> categories;
    for (const auto &r : results.front()) {
        if (std::find(categories.begin(), categories.end(), r.category) ==
            categories.end()) {
            categories.push_back(r.category);
        }
    }

    ReportRecord record;
    record.title = title;
    record.configs = config_names;
    record.columns = categories;

    TablePrinter table;
    table.newRow();
    table.cell(std::string("config"));
    for (const auto &cat : categories)
        table.cell(cat);
    for (size_t c = 0; c < config_names.size(); ++c) {
        table.newRow();
        table.cell(config_names[c]);
        record.cells.emplace_back();
        for (const auto &cat : categories) {
            std::vector<double> values;
            for (const auto &r : results[c]) {
                if (r.category == cat)
                    values.push_back(metric(r));
            }
            double value = mean(values);
            table.cell(value, 3);
            record.cells.back().push_back(value);
        }
    }
    table.print();
    report_log.push_back(std::move(record));
}

} // namespace eip::harness
