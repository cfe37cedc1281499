#include "harness/report.hh"

#include "util/stats_math.hh"
#include "util/table_printer.hh"

namespace eip::harness {

std::vector<double>
collect(const std::vector<RunResult> &results, const Metric &metric)
{
    std::vector<double> out;
    out.reserve(results.size());
    for (const auto &r : results)
        out.push_back(metric(r));
    return out;
}

std::string
renderTable(const ReportRecord &record)
{
    TablePrinter table;
    table.newRow();
    table.cell(record.labelHeader);
    for (const std::string &column : record.columns)
        table.cell(column);
    for (const ReportRow &row : record.rows) {
        table.newRow();
        table.cell(row.label);
        for (size_t c = 0; c < row.values.size(); ++c)
            table.cell(row.values[c],
                       row.digits >= 0 ? row.digits : record.digits[c]);
    }
    return table.toString();
}

ReportRecord
sortedSeries(const std::string &title,
             const std::vector<std::string> &config_names,
             const std::vector<std::vector<double>> &series)
{
    static const std::pair<const char *, double> kPoints[] = {
        {"min", 0.0},  {"p10", 0.10}, {"p25", 0.25}, {"p50", 0.50},
        {"p75", 0.75}, {"p90", 0.90}, {"max", 1.0},
    };

    ReportRecord record;
    record.title = title;
    for (const auto &point : kPoints) {
        record.columns.push_back(point.first);
        record.digits.push_back(3);
    }
    for (size_t c = 0; c < config_names.size(); ++c) {
        ReportRow row{config_names[c], {}};
        for (const auto &point : kPoints)
            row.values.push_back(percentile(series[c], point.second));
        record.rows.push_back(std::move(row));
    }
    return record;
}

} // namespace eip::harness
