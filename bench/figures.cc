/**
 * @file
 * figures: regenerates every figure and table of the paper,
 * plus two extension studies, from one shared run matrix.
 *
 *   figures [VIEW-ID...]      no ids = every view, in paper order
 *
 * Each view declares the cells it reads (a workload under a
 * harness::RunSpec) and renders its tables from their results only:
 * every simulation, the motivation figures' and the extensions'
 * included, is a cell named by a factory config id. The
 * program collects the cells of the selected views, deduplicates them on
 * harness::resultCacheKey and runs the union once through
 * harness::runBatch. It then prints the views in order, writes one
 * eip-bench/v1 artifact BENCH_<view id>.json per view, and closes with a
 * trailer: wall-clock, job count, requested and unique cells, and
 * program-cache builds/hits.
 *
 * EIP_SIM_SCALE scales the instruction budgets (shapes survive),
 * EIP_JOBS sets the worker count (tables are byte-identical for any),
 * EIP_BENCH_ARTIFACT_DIR the artifact directory (default: the current
 * one). DESIGN.md indexes the views; EXPERIMENTS.md compares their
 * shapes with the paper's.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dest_compression.hh"
#include "energy/energy_model.hh"
#include "exec/jobs.hh"
#include "exec/program_cache.hh"
#include "harness/artifacts.hh"
#include "harness/canonical.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "prefetch/factory.hh"
#include "prefetch/lookahead.hh"
#include "sim/config.hh"
#include "trace/workloads.hh"
#include "util/env.hh"
#include "util/panic.hh"
#include "util/stats_math.hh"

using namespace eip;
using harness::ReportRecord;
using harness::RunJob;
using harness::RunResult;
using harness::RunSpec;
using trace::cvpSuite;
using trace::Workload;

namespace {

/** Every requested cell, run once; results addressed by cell. */
class Matrix
{
  public:
    Matrix(const std::vector<RunJob> &requested, unsigned jobs)
        : requested(requested.size()),
          git(obs::buildGitDescribe())
    {
        std::vector<RunJob> unique;
        for (const RunJob &job : requested)
            if (index.emplace(key(job.workload, job.spec), unique.size())
                    .second)
                unique.push_back(job);
        results = harness::runBatch(unique, jobs);
    }

    const RunResult &
    at(const Workload &workload, const RunSpec &spec) const
    {
        auto it = index.find(key(workload, spec));
        EIP_ASSERT(it != index.end(), "a view read a cell it never declared");
        return results[it->second];
    }

    /** The results of @p spec over @p suite, in suite order. */
    std::vector<RunResult>
    suite(const std::vector<Workload> &suite, const RunSpec &spec) const
    {
        std::vector<RunResult> out;
        for (const Workload &w : suite)
            out.push_back(at(w, spec));
        return out;
    }

    size_t unique() const { return results.size(); }

    const size_t requested;

  private:
    std::string
    key(const Workload &workload, const RunSpec &spec) const
    {
        return harness::resultCacheKey(git, sim::SimConfig{}, spec,
                                       workload);
    }

    std::string git;
    std::unordered_map<std::string, size_t> index;
    std::vector<RunResult> results;
};

/** What a view prints, in order, and the tables its artifact carries. */
struct Report
{
    enum class Title { Printed, ArtifactOnly };

    void text(const std::string &s) { out += s; }

    /** Print @p record (its title line first, unless ArtifactOnly) and
     *  keep it for the artifact. */
    void
    table(ReportRecord record, Title title = Title::Printed)
    {
        if (title == Title::Printed)
            out += record.title + "\n";
        out += harness::renderTable(record);
        tables.push_back(std::move(record));
    }

    std::string out;
    std::vector<ReportRecord> tables;
};

using Title = Report::Title;

/** One figure or table of the paper. */
struct View
{
    const char *id;     ///< artifact name and command-line selector
    const char *figure; ///< banner heading; nullptr prints no banner
    const char *what;
    std::vector<RunJob> (*cells)(); ///< nullptr: reads no matrix cell
    void (*render)(const Matrix &, Report &);
};

// Shared vocabulary of the views.

/** Default spec (EIP_SIM_SCALE applied) for @p config_id, with the
 *  flag @p flag, if any, set to @p on. */
RunSpec
spec(const std::string &config_id, bool RunSpec::*flag = nullptr,
     bool on = true)
{
    RunSpec s = RunSpec::defaultSpec();
    s.configId = config_id;
    if (flag != nullptr)
        s.*flag = on;
    return s;
}

/** @p suite under each of @p specs, spec-major. */
std::vector<RunJob>
cross(const std::vector<Workload> &suite, const std::vector<RunSpec> &specs)
{
    std::vector<RunJob> out;
    for (const RunSpec &s : specs)
        for (const Workload &w : suite)
            out.push_back(RunJob{w, s});
    return out;
}

std::vector<RunJob>
cross(const std::vector<Workload> &suite,
      const std::vector<std::string> &config_ids)
{
    std::vector<RunSpec> specs;
    for (const std::string &id : config_ids)
        specs.push_back(spec(id));
    return cross(suite, specs);
}

/** @p configs behind the no-prefetch baseline. */
std::vector<std::string>
withNone(std::vector<std::string> configs)
{
    configs.insert(configs.begin(), "none");
    return configs;
}

ReportRecord
record(std::string title, std::string label_header,
       std::vector<std::string> columns, int digits)
{
    ReportRecord r;
    r.title = std::move(title);
    r.labelHeader = std::move(label_header);
    r.digits.assign(columns.size(), digits);
    r.columns = std::move(columns);
    return r;
}

void
addRow(ReportRecord &r, std::string label, std::vector<double> values)
{
    r.rows.push_back({std::move(label), std::move(values)});
}

std::vector<double>
normalizedIpc(const std::vector<RunResult> &results,
              const std::vector<RunResult> &baseline)
{
    std::vector<double> out;
    for (size_t i = 0; i < results.size(); ++i)
        out.push_back(results[i].stats.ipc() / baseline[i].stats.ipc());
    return out;
}

double
speedupPct(const std::vector<RunResult> &results,
           const std::vector<RunResult> &baseline)
{
    return (harness::geomeanSpeedup(results, baseline) - 1.0) * 100.0;
}

/** Figs. 7-10: one sorted per-workload series per config over the
 *  3-seed suite; @p series maps a config's results to its values. */
template <typename Series>
void
sCurves(const Matrix &m, Report &r, const std::string &title,
        const std::vector<std::string> &configs, Series series)
{
    std::vector<std::string> names;
    std::vector<std::vector<double>> values;
    for (const std::string &id : configs) {
        std::vector<RunResult> results = m.suite(cvpSuite(3), spec(id));
        names.push_back(results.front().configName);
        values.push_back(series(results));
    }
    r.table(harness::sortedSeries(title, names, values));
}

/** @p metric of each result, in order. */
template <typename Metric>
auto
each(Metric metric)
{
    return [metric](const std::vector<RunResult> &results) {
        return harness::collect(results, metric);
    };
}

const char *const kCategories[] = {"crypto", "int", "fp", "srv"};

// Fig. 1 / Fig. 2 — a fixed look-ahead distance cannot serve all misses.
// Fig. 1 reads the oracle's timely-fraction gauges, so its cells collect
// the counter registry.

RunSpec
oracleSpec()
{
    return spec("lookahead-oracle", &RunSpec::collectCounters);
}

RunSpec
lookaheadSpec(unsigned distance)
{
    return spec("lookahead-" + std::to_string(distance));
}

std::vector<RunJob>
cellsFig01()
{
    std::vector<RunSpec> specs = {oracleSpec()};
    for (unsigned d : prefetch::kLookaheadDistances)
        specs.push_back(lookaheadSpec(d));
    return cross(cvpSuite(2), specs);
}

void
renderFig01(const Matrix &m, Report &r)
{
    const std::vector<Workload> workloads = cvpSuite(2);

    // Fig. 1: oracle timely fraction per distance, on the no-prefetch
    // baseline with each miss's latency tracked.
    std::vector<std::string> columns;
    for (unsigned d = 1; d <= prefetch::LookaheadOracle::kReportedDistances;
         ++d)
        columns.push_back("d=" + std::to_string(d));
    ReportRecord fig1 = record(
        "Fig. 1: fraction of timely prefetches at look-ahead distance d "
        "(oracle, per workload)",
        "workload", columns, 3);
    for (const Workload &w : workloads) {
        const obs::CounterDump &counters = m.at(w, oracleSpec()).counters;
        std::vector<double> row;
        for (size_t d = 1; d <= columns.size(); ++d)
            row.push_back(
                counters.gauge("lookahead.timely_d" + std::to_string(d))
                    .value());
        addRow(fig1, w.name, row);
    }
    r.text("\n");
    r.table(std::move(fig1));
    r.text("Expected shape: no single distance serves all misses; a "
           "tail needs d > 10 (paper Fig. 1).\n");

    // Fig. 2: accuracy of the fixed-distance prefetcher vs distance.
    columns.clear();
    for (unsigned d : prefetch::kLookaheadDistances)
        columns.push_back("d=" + std::to_string(d));
    ReportRecord fig2 = record(
        "Fig. 2: accuracy of a fixed look-ahead prefetcher vs distance",
        "workload", columns, 3);
    for (const Workload &w : workloads) {
        std::vector<double> row;
        for (unsigned d : prefetch::kLookaheadDistances)
            row.push_back(m.at(w, lookaheadSpec(d)).stats.l1i.accuracy());
        addRow(fig2, w.name, row);
    }
    r.text("\n");
    r.table(std::move(fig2));
    r.text("Expected shape: accuracy degrades as the distance grows "
           "(paper Fig. 2, up to ~10% loss from d=1 to d=10).\n");
}

// Table III — simulated system configuration. It prints
// SimConfig::describe(); the artifact carries the cache levels as numbers.

void
renderTab03(const Matrix &, Report &r)
{
    const sim::SimConfig cfg;
    r.text("Table III — simulated system configuration\n" + cfg.describe());
    ReportRecord levels = record(
        "Table III — simulated system configuration", "level",
        {"size-KB", "ways", "sets", "latency", "MSHR", "PQ"}, 0);
    for (const sim::CacheConfig *c : {&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.llc})
        addRow(levels, c->name,
               {c->sizeBytes / 1024.0, double(c->ways), double(c->sets()),
                double(c->hitLatency), double(c->mshrEntries),
                double(c->pqEntries)});
    r.tables.push_back(std::move(levels));
}

// Fig. 6 — geomean IPC vs storage for every prefetcher, the larger L1Is
// and the ideal cache.

std::vector<std::string>
fig06Configs()
{
    std::vector<std::string> configs = prefetch::figure6Lineup();
    configs.emplace_back("l1i-64kb");
    configs.emplace_back("l1i-96kb");
    configs.emplace_back("ideal");
    return configs;
}

void
renderFig06(const Matrix &m, Report &r)
{
    const std::vector<Workload> workloads = cvpSuite(3);
    const std::vector<RunResult> baseline = m.suite(workloads, spec("none"));
    ReportRecord table = record(
        "Fig. 6: geomean IPC vs storage", "config",
        {"storage-KB", "geomean-IPC(norm)", "speedup-%"}, 2);
    table.digits[1] = 4;
    for (const std::string &id : fig06Configs()) {
        std::vector<RunResult> results = m.suite(workloads, spec(id));
        double geo = harness::geomeanSpeedup(results, baseline);
        addRow(table, results.front().configName,
               {results.front().storageKB, geo, (geo - 1.0) * 100.0});
    }
    r.table(std::move(table), Title::ArtifactOnly);
    r.text(
        "\nExpected shape (paper Fig. 6): Entangling-4K offers the best\n"
        "area/performance balance among <64KB prefetchers; Entangling-8K\n"
        "approaches the Ideal cache; low-budget Entangling-2K outperforms\n"
        "the MANA configurations; larger L1I alone is less effective than\n"
        "prefetching at equal budget.\n");
}

// Figs. 7-10 — per-workload s-curves.

std::vector<std::string>
fig07Configs()
{
    std::vector<std::string> configs = prefetch::mainLineup();
    configs.emplace_back("ideal");
    return configs;
}

void
renderFig07(const Matrix &m, Report &r)
{
    const std::vector<RunResult> baseline = m.suite(cvpSuite(3), spec("none"));
    sCurves(m, r, "normalized IPC (sorted per config)", fig07Configs(),
            [&](const std::vector<RunResult> &results) {
                return normalizedIpc(results, baseline);
            });
    r.text(
        "\nExpected shape (paper Fig. 7): both Entangling configurations\n"
        "dominate the other prefetchers across the curve; Entangling-4K\n"
        "tracks the ideal closely for most workloads; the minimum stays\n"
        ">= 1.0 (no workload is degraded), unlike NextLine.\n");
}

void
renderFig08(const Matrix &m, Report &r)
{
    sCurves(m, r, "L1I miss ratio (sorted per config)",
            withNone(prefetch::mainLineup()), each([](const RunResult &x) {
                return x.stats.l1i.missRatio();
            }));
    r.text(
        "\nExpected shape (paper Fig. 8): Entangling reduces the miss\n"
        "ratio drastically across the whole curve; its worst case stays\n"
        "far below the other prefetchers' worst cases (~5-10% vs >20%).\n");
}

void
renderFig09(const Matrix &m, Report &r)
{
    sCurves(m, r, "coverage (sorted per config)", prefetch::mainLineup(),
            each([](const RunResult &x) { return x.stats.l1i.coverage(); }));
    r.text(
        "\nExpected shape (paper Fig. 9): Entangling shows much higher\n"
        "coverage than the other prefetchers across the curve "
        "(Entangling-4K\n~90% for most workloads in the paper; other "
        "prefetchers below 50%).\n");
}

void
renderFig10(const Matrix &m, Report &r)
{
    sCurves(m, r, "accuracy (sorted per config)", prefetch::mainLineup(),
            each([](const RunResult &x) { return x.stats.l1i.accuracy(); }));
    r.text(
        "\nExpected shape (paper Fig. 10): Entangling achieves the\n"
        "highest accuracy (above 50% for most workloads); NextLine the\n"
        "lowest; RDIP and MANA mostly below 50%.\n");
}

// Table IV — average energy per cache level (nJ) and the geomean of the
// total energy normalized to no prefetching.

const std::vector<std::string> kTab04Configs = {
    "none",    "nextline",      "sn4l",          "mana-2k",
    "mana-4k", "entangling-2k", "entangling-4k", "rdip"};

void
renderTab04(const Matrix &m, Report &r)
{
    const std::vector<Workload> workloads = cvpSuite(2);
    energy::EnergyModel model;

    // Per-config per-workload energy breakdowns.
    std::vector<std::string> names;
    std::vector<std::vector<energy::EnergyBreakdown>> energies;
    for (const std::string &id : kTab04Configs) {
        std::vector<RunResult> results = m.suite(workloads, spec(id));
        names.push_back(results.front().configName);
        std::vector<energy::EnergyBreakdown> row;
        for (const RunResult &x : results)
            row.push_back(model.evaluate(x.stats));
        energies.push_back(std::move(row));
    }

    ReportRecord table = record(
        "Table IV: cache-hierarchy energy per prefetcher", "metric", names, 1);
    const char *rows[] = {"Avg L1I energy (nJ)", "Avg L1D energy (nJ)",
                          "Avg L2 energy (nJ)", "Avg LLC energy (nJ)"};
    double energy::EnergyBreakdown::*fields[] = {
        &energy::EnergyBreakdown::l1i, &energy::EnergyBreakdown::l1d,
        &energy::EnergyBreakdown::l2, &energy::EnergyBreakdown::llc};
    for (size_t metric = 0; metric < std::size(rows); ++metric) {
        std::vector<double> values;
        for (const auto &row : energies) {
            double sum = 0.0;
            for (const energy::EnergyBreakdown &e : row)
                sum += e.*fields[metric];
            values.push_back(sum / static_cast<double>(row.size()));
        }
        addRow(table, rows[metric], values);
    }

    // Geometric mean of the normalized total energy per workload.
    std::vector<double> geo;
    for (const auto &row : energies) {
        std::vector<double> ratios;
        for (size_t w = 0; w < workloads.size(); ++w)
            ratios.push_back(row[w].total() / energies[0][w].total());
        geo.push_back(geomean(ratios));
    }
    table.rows.push_back({"Geomean (norm. total)", geo, 4});
    r.table(std::move(table), Title::ArtifactOnly);
    r.text(
        "\nExpected shape (paper Table IV): prefetching raises L1I energy\n"
        "(extra accesses); among the evaluated schemes RDIP is the most\n"
        "energy-frugal (few prefetches) and Entangling is the cheapest of\n"
        "the high-coverage prefetchers, below NextLine/SN4L/MANA in\n"
        "normalized total energy. (The paper's absolute below-baseline\n"
        "totals stem from front-end re-access behaviour of its baseline\n"
        "that this model does not reproduce; the relative ordering is the\n"
        "reproduced shape.)\n");
}

// Fig. 11 — ablation of the Entangling mechanisms at each table size:
//   BB            — prefetch the current basic block only
//   BBEnt         — + entangled destination lines
//   BBEntBB       — + the destinations' whole basic blocks
//   Ent           — entangle every line, no basic blocks
//   BBEntBB-Merge — the full proposal (+ spatio-temporal merging)

const char *const kFig11Variants[] = {"bb", "ent", "bbent", "bbentbb",
                                      "entangling"};
const char *const kFig11Labels[] = {"BB", "Ent", "BBEnt", "BBEntBB",
                                    "BBEntBB-Merge"};
const char *const kFig11Sizes[] = {"2k", "4k", "8k"};

std::vector<RunJob>
cellsFig11()
{
    std::vector<std::string> configs = {"none"};
    for (const char *variant : kFig11Variants)
        for (const char *size : kFig11Sizes)
            configs.push_back(std::string(variant) + "-" + size);
    return cross(cvpSuite(2), configs);
}

void
renderFig11(const Matrix &m, Report &r)
{
    const std::vector<Workload> workloads = cvpSuite(2);
    const std::vector<RunResult> baseline = m.suite(workloads, spec("none"));
    std::vector<std::string> columns;
    for (const char *size : kFig11Sizes)
        columns.push_back(std::string("speedup-") + size + "-%");
    ReportRecord table = record(
        "Fig. 11: ablation of the Entangling mechanisms", "variant", columns,
        2);
    for (size_t v = 0; v < std::size(kFig11Variants); ++v) {
        std::vector<double> values;
        for (const char *size : kFig11Sizes) {
            std::string id = std::string(kFig11Variants[v]) + "-" + size;
            values.push_back(
                speedupPct(m.suite(workloads, spec(id)), baseline));
        }
        addRow(table, kFig11Labels[v], values);
    }
    r.table(std::move(table), Title::ArtifactOnly);
    r.text(
        "\nExpected shape (paper Fig. 11): the key gains come from\n"
        "entangling (BBEnt >> BB); prefetching destination basic blocks\n"
        "adds further gains (BBEntBB); merging matters most for the 2K\n"
        "budget; Ent (no basic blocks) underperforms the BB-based\n"
        "variants.\n");
}

// Fig. 12 (+ Tables I and II) — destination compression. Destinations
// are bucketed by the paper's mode widths: 8, 10, 13, 18, 28 and 58 bits
// (virtual scheme).

ReportRecord
schemeTable(const std::string &title, const core::CompressionScheme &scheme)
{
    ReportRecord table = record(
        title + " (payload " + std::to_string(scheme.payloadBits) +
            " bits + " + std::to_string(scheme.modeBits) + " mode bits)",
        "mode (destinations)", {"address bits each"}, 0);
    for (unsigned k = 1; k <= scheme.maxDests; ++k)
        addRow(table, std::to_string(k), {double(scheme.addrBits(k))});
    return table;
}

void
renderFig12(const Matrix &m, Report &r)
{
    r.table(schemeTable("Table I — virtual compression modes",
                        core::CompressionScheme::virtualScheme()));
    r.text("\n");
    r.table(schemeTable("Table II — physical compression modes",
                        core::CompressionScheme::physicalScheme()));

    // Fig. 12: fraction of inserted destinations per encoding bucket,
    // aggregated per category (mean over the category's workloads).
    const unsigned buckets[] = {8, 10, 13, 18, 28, 58};
    std::vector<std::string> columns;
    for (unsigned b : buckets)
        columns.push_back("<=" + std::to_string(b) + "b");
    ReportRecord table = record(
        "Fig. 12: destination encoding width by category (Entangling-4K)",
        "category", columns, 3);
    const std::vector<Workload> workloads = cvpSuite(3);
    for (const char *cat : kCategories) {
        // Accumulate the per-bits fractions over the category.
        std::vector<double> fractions(64, 0.0);
        int count = 0;
        for (const Workload &w : workloads) {
            if (w.category != cat)
                continue;
            const RunResult &x = m.at(w, spec("entangling-4k"));
            for (size_t i = 0;
                 i < x.destBitsFractions.size() && i < fractions.size(); ++i)
                fractions[i] += x.destBitsFractions[i];
            ++count;
        }
        std::vector<double> shares;
        unsigned lo = 0;
        for (unsigned b : buckets) {
            double share = 0.0;
            for (unsigned bits = lo; bits <= b && bits < 64; ++bits)
                share += fractions[bits] / std::max(count, 1);
            shares.push_back(share);
            lo = b + 1;
        }
        addRow(table, cat, shares);
    }
    r.text("\n");
    r.table(std::move(table));
    r.text(
        "\nExpected shape (paper Fig. 12): almost all destinations\n"
        "compress tightly in crypto/int/fp; srv has the largest fraction\n"
        "of wide destinations but the bulk still fits 18 bits.\n");
}

// Figs. 13-15 — Entangled-table usage per category: destinations per
// hit, current and destination basic-block sizes, and the paper's
// prefetches-per-hit formula  bbsize + destinations * (1 + bbsize_dst).

const std::vector<std::string> kEntanglingSizes = {
    "entangling-2k", "entangling-4k", "entangling-8k"};

void
renderFig13(const Matrix &m, Report &r)
{
    struct Means
    {
        double dests = 0.0, bb = 0.0, bbdst = 0.0;
    };
    std::vector<std::string> names;
    std::vector<std::vector<Means>> means; // [config][category]
    for (const std::string &id : kEntanglingSizes) {
        std::vector<RunResult> results = m.suite(cvpSuite(3), spec(id));
        names.push_back(results.front().configName);
        means.emplace_back();
        for (const char *cat : kCategories) {
            Means sum;
            int n = 0;
            for (const RunResult &x : results) {
                if (x.category != cat)
                    continue;
                sum.dests += x.avgDestsPerHit;
                sum.bb += x.avgCurrentBbSize;
                sum.bbdst += x.avgDstBbSize;
                ++n;
            }
            if (n > 0)
                sum = {sum.dests / n, sum.bb / n, sum.bbdst / n};
            means.back().push_back(sum);
        }
    }

    auto perCategory = [&](std::string title, double (*value)(const Means &)) {
        ReportRecord table =
            record(std::move(title), "config",
                   {std::begin(kCategories), std::end(kCategories)}, 2);
        for (size_t c = 0; c < names.size(); ++c) {
            std::vector<double> values;
            for (const Means &x : means[c])
                values.push_back(value(x));
            addRow(table, names[c], values);
        }
        r.text("\n");
        r.table(std::move(table));
    };
    perCategory("Fig. 13: average number of entangled destinations per hit",
                [](const Means &x) { return x.dests; });
    perCategory("Fig. 14: average basic-block size (current block)",
                [](const Means &x) { return x.bb; });
    perCategory(
        "Fig. 15: average basic-block size of entangled destinations",
        [](const Means &x) { return x.bbdst; });
    perCategory("Derived: average prefetches per Entangled-table hit "
                "(bb + dests*(1+bb_dst))",
                [](const Means &x) { return x.bb + x.dests * (1.0 + x.bbdst); });
    r.text(
        "\nExpected shape (paper Fig. 13-15/§IV-D): ~2.2-2.5 destinations\n"
        "per hit; small basic blocks; the derived prefetches-per-hit stay\n"
        "moderate (the paper reports ~9-17 across categories).\n");
}

// §IV-E — physical-address training. The virtual-to-physical page
// scatter breaks cross-page sequentiality and shrinks the compression
// reach, slightly reducing the gains.

/** (virtual id, physical id) per row; "none" is the baseline. */
const std::pair<const char *, const char *> kSec4eRows[] = {
    {"nextline", "nextline"},
    {"entangling-2k", "entangling-2k-phys"},
    {"entangling-4k", "entangling-4k-phys"},
    {"entangling-8k", "entangling-8k-phys"},
};

std::vector<RunJob>
cellsSec4e()
{
    std::vector<RunSpec> specs = {spec("none"),
                                  spec("none", &RunSpec::physicalL1i)};
    for (const auto &[virt, phys] : kSec4eRows) {
        specs.push_back(spec(virt));
        specs.push_back(spec(phys, &RunSpec::physicalL1i));
    }
    return cross(cvpSuite(2), specs);
}

void
renderSec4e(const Matrix &m, Report &r)
{
    const std::vector<Workload> workloads = cvpSuite(2);
    const auto base_virt = m.suite(workloads, spec("none"));
    const auto base_phys =
        m.suite(workloads, spec("none", &RunSpec::physicalL1i));
    ReportRecord table = record(
        "Sec. IV-E: physical-address training", "config",
        {"virtual speedup-%", "physical speedup-%"}, 2);
    for (const auto &[virt_id, phys_id] : kSec4eRows) {
        std::vector<RunResult> virt = m.suite(workloads, spec(virt_id));
        std::vector<RunResult> phys =
            m.suite(workloads, spec(phys_id, &RunSpec::physicalL1i));
        addRow(table, virt.front().configName,
               {speedupPct(virt, base_virt), speedupPct(phys, base_phys)});
    }
    r.table(std::move(table), Title::ArtifactOnly);
    r.text(
        "\nExpected shape (paper §IV-E): Entangling keeps outperforming\n"
        "its competitors with physical training; the speedups drop\n"
        "slightly versus virtual (paper: 5.62/8.10/8.87% vs\n"
        "7.50/9.60/10.1%), and the 8K > 4K > 2K ordering is preserved.\n");
}

// Fig. 16 — CloudSuite-like applications (cassandra, cloud9, nutch,
// streaming) under the sub-64KB line-up plus the ideal cache.

const std::vector<std::string> kFig16Configs = {
    "nextline",      "sn4l",          "mana-2k", "mana-4k",
    "entangling-2k", "entangling-4k", "ideal"};

void
renderFig16(const Matrix &m, Report &r)
{
    const std::vector<Workload> workloads = trace::cloudSuite();
    const std::vector<RunResult> baseline = m.suite(workloads, spec("none"));
    std::vector<std::string> columns;
    for (const Workload &w : workloads)
        columns.push_back(w.name);
    ReportRecord table = record("Fig. 16: CloudSuite-like normalized IPC",
                                "config", columns, 3);
    for (const std::string &id : kFig16Configs) {
        std::vector<RunResult> results = m.suite(workloads, spec(id));
        addRow(table, results.front().configName,
               normalizedIpc(results, baseline));
    }
    r.table(std::move(table), Title::ArtifactOnly);
    r.text(
        "\nExpected shape (paper Fig. 16): the Entangling prefetcher\n"
        "outperforms the other evaluated prefetchers on every CloudSuite\n"
        "application, approaching the ideal cache.\n");
}

// Extension (paper §III-C1 / future work): wrong-path execution. ChampSim
// — and therefore the paper's evaluation — does not simulate the wrong
// path; the paper argues Entangling can avoid wrong-path pollution by
// buffering speculative pairs until commit. This view quantifies (a) how
// much wrong-path fetch costs each prefetcher and (b) what the
// commit-time-training mitigation recovers, on one srv workload (the
// class where pollution matters most).

/** The arms: (row label, config id). */
const std::pair<const char *, const char *> kWrongPathArms[] = {
    {"no", "none"},
    {"NextLine", "nextline"},
    {"Entangling-4K", "entangling-4k"},
    {"Entangling-4K+commit", "entangling-4k-commit"},
};

std::vector<RunJob>
cellsWrongPath()
{
    std::vector<RunSpec> specs;
    for (const auto &arm : kWrongPathArms)
        for (bool wrong_path : {false, true})
            specs.push_back(spec(arm.second, &RunSpec::wrongPath, wrong_path));
    return cross({cvpSuite(1)[3]}, specs);
}

void
renderWrongPath(const Matrix &m, Report &r)
{
    const Workload w = cvpSuite(1)[3];
    ReportRecord table = record(
        "Extension: wrong-path execution and §III-C1", "config",
        {"IPC (no wrong path)", "IPC (wrong path)", "acc (no WP)",
         "acc (WP)"},
        3);
    for (const auto &[label, id] : kWrongPathArms) {
        const sim::SimStats &clean =
            m.at(w, spec(id, &RunSpec::wrongPath, false)).stats;
        const sim::SimStats &wrong =
            m.at(w, spec(id, &RunSpec::wrongPath, true)).stats;
        addRow(table, label,
               {clean.ipc(), wrong.ipc(), clean.l1i.accuracy(),
                wrong.l1i.accuracy()});
    }
    r.table(std::move(table), Title::ArtifactOnly);
    r.text(
        "\nExpected shape (paper §III-C1/IV-A): all prefetchers benefit\n"
        "from NOT modelling the wrong path (accuracy drops when it is\n"
        "modelled); Entangling tolerates wrong-path pollution well, and\n"
        "commit-time training recovers most of the difference without\n"
        "hurting the clean-path configuration.\n");
}

// Extension (the paper's §III-C3 closing future-work remark): storing
// basic-block sizes and entangled pairs in separate structures instead
// of the unified Entangled table, at matched low budgets. The bb-size
// side table costs 16 bits/entry versus 79 for a unified entry, so a
// split design tracks far more basic blocks per kilobyte. Each split
// row follows the unified configuration at its budget.

const std::vector<std::string> kSplitConfigs = {
    "entangling-2k", "entangling-split-1k", "entangling-split-512",
    "entangling-4k", "entangling-split-2k"};

void
renderSplit(const Matrix &m, Report &r)
{
    const std::vector<Workload> workloads = cvpSuite(2);
    const std::vector<RunResult> baseline = m.suite(workloads, spec("none"));
    ReportRecord table = record(
        "Extension: unified vs split basic-block/pair storage (low budget)",
        "config", {"storage-KB", "speedup-%", "mean coverage"}, 2);
    table.digits[2] = 3;
    for (const std::string &id : kSplitConfigs) {
        const std::vector<RunResult> results = m.suite(workloads, spec(id));
        addRow(table, results.front().configName,
               {results.front().storageKB,
                (geomean(normalizedIpc(results, baseline)) - 1.0) * 100.0,
                mean(harness::collect(results, [](const RunResult &x) {
                    return x.stats.l1i.coverage();
                }))});
    }
    r.table(std::move(table), Title::ArtifactOnly);
    r.text(
        "\nExpected shape (paper §III-C3 future work): at the low-budget\n"
        "point, splitting sizes from pairs buys more tracked basic blocks\n"
        "per kilobyte and matches or beats the unified organisation; the\n"
        "advantage fades at larger budgets where the unified table is no\n"
        "longer capacity-bound.\n");
}

// View selection, the matrix run, and the output.

const View kViews[] = {
    {"fig01_02_lookahead", "Fig. 1 / Fig. 2",
     "timeliness and accuracy vs fixed look-ahead distance", cellsFig01,
     renderFig01},
    {"tab03_config", nullptr, nullptr, nullptr, renderTab03},
    {"fig06_ipc_vs_storage", "Fig. 6", "IPC vs storage for all prefetchers",
     [] { return cross(cvpSuite(3), withNone(fig06Configs())); }, renderFig06},
    {"fig07_ipc_curves", "Fig. 7",
     "normalized IPC across workloads (s-curves)",
     [] { return cross(cvpSuite(3), withNone(fig07Configs())); }, renderFig07},
    {"fig08_missrate", "Fig. 8", "L1I miss ratio across workloads",
     [] { return cross(cvpSuite(3), withNone(prefetch::mainLineup())); },
     renderFig08},
    {"fig09_coverage", "Fig. 9", "prefetcher coverage across workloads",
     [] { return cross(cvpSuite(3), prefetch::mainLineup()); }, renderFig09},
    {"fig10_accuracy", "Fig. 10", "prefetcher accuracy across workloads",
     [] { return cross(cvpSuite(3), prefetch::mainLineup()); }, renderFig10},
    {"tab04_energy", "Table IV", "cache-hierarchy energy per prefetcher",
     [] { return cross(cvpSuite(2), kTab04Configs); }, renderTab04},
    {"fig11_ablation", "Fig. 11", "ablation of the Entangling mechanisms",
     cellsFig11, renderFig11},
    {"fig12_compression", "Fig. 12 / Tables I-II", "destination compression",
     [] { return cross(cvpSuite(3), {spec("entangling-4k")}); }, renderFig12},
    {"fig13_15_entangled_stats", "Fig. 13-15",
     "Entangled-table usage statistics",
     [] { return cross(cvpSuite(3), kEntanglingSizes); }, renderFig13},
    {"sec4e_physical", "Sec. IV-E", "physical-address training", cellsSec4e,
     renderSec4e},
    {"fig16_cloudsuite", "Fig. 16", "CloudSuite-like applications",
     [] { return cross(trace::cloudSuite(), withNone(kFig16Configs)); },
     renderFig16},
    {"ext_wrongpath", "Extension", "wrong-path execution and §III-C1",
     cellsWrongPath, renderWrongPath},
    {"ext_split_table", "Extension",
     "unified vs split basic-block/pair storage (low budget)",
     [] { return cross(cvpSuite(2), withNone(kSplitConfigs)); }, renderSplit},
};

/** BENCH_<id>.json in EIP_BENCH_ARTIFACT_DIR (default: the current
 *  directory). */
std::string
artifactPath(const std::string &id)
{
    std::string file = "BENCH_" + id + ".json";
    const char *dir = std::getenv("EIP_BENCH_ARTIFACT_DIR");
    if (dir != nullptr && *dir != '\0')
        return std::string(dir) + "/" + file;
    return file;
}

void
writeArtifact(const View &view, const std::vector<ReportRecord> &tables,
              double seconds, unsigned jobs)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("schema", obs::kBenchSchema);
    json.kv("bench", view.id);
    json.kv("git_describe", obs::buildGitDescribe());
    json.kv("sim_scale", util::envDouble("EIP_SIM_SCALE").value_or(1.0));
    json.key("tables").beginArray();
    for (const ReportRecord &table : tables) {
        json.beginObject();
        json.kv("title", table.title);
        json.kv("label", table.labelHeader);
        json.key("columns").beginArray();
        for (const std::string &col : table.columns)
            json.value(col);
        json.endArray();
        json.key("digits").beginArray();
        for (int d : table.digits)
            json.value(d);
        json.endArray();
        json.key("rows").beginArray();
        for (const harness::ReportRow &row : table.rows) {
            json.beginObject();
            json.kv("config", row.label);
            json.key("values").beginArray();
            for (double v : row.values)
                json.value(v);
            json.endArray();
            if (row.digits >= 0)
                json.kv("digits", row.digits);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    // Environment-dependent timing last (mirrors the run manifest); the
    // matrix is shared, so this is the whole run's wall-clock.
    json.kv("wall_clock_seconds", seconds);
    json.kv("jobs", jobs);
    json.endObject();
    harness::writeTextFile(artifactPath(view.id), json.str() + "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = std::chrono::steady_clock::now();

    std::vector<const View *> selected;
    for (int i = 1; i < argc; ++i) {
        const View *found = nullptr;
        for (const View &view : kViews)
            if (view.id == std::string(argv[i]))
                found = &view;
        if (found == nullptr) {
            std::fprintf(stderr,
                         "figures: unknown view '%s'\nusage: figures "
                         "[VIEW-ID...]  (no ids = every view)\nviews:\n",
                         argv[i]);
            for (const View &view : kViews)
                std::fprintf(stderr, "  %s\n", view.id);
            return 2;
        }
        selected.push_back(found);
    }
    if (selected.empty())
        for (const View &view : kViews)
            selected.push_back(&view);

    const unsigned jobs = exec::defaultJobs();
    std::vector<RunJob> cells;
    for (const View *view : selected)
        if (view->cells != nullptr)
            for (RunJob &job : view->cells())
                cells.push_back(std::move(job));
    const Matrix matrix(cells, jobs);

    std::vector<Report> reports(selected.size());
    for (size_t v = 0; v < selected.size(); ++v) {
        const View &view = *selected[v];
        if (view.figure != nullptr)
            std::printf(
                "=====================================================\n"
                "%s — %s\n"
                "(shape reproduction; see EXPERIMENTS.md for the "
                "paper-vs-measured record; jobs=%u, set EIP_JOBS to "
                "override)\n"
                "=====================================================\n",
                view.figure, view.what, jobs);
        view.render(matrix, reports[v]);
        std::fputs(reports[v].out.c_str(), stdout);
        std::fflush(stdout);
    }

    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    for (size_t v = 0; v < selected.size(); ++v)
        writeArtifact(*selected[v], reports[v].tables, seconds, jobs);
    const exec::ProgramCache &cache = exec::ProgramCache::global();
    std::printf("\n[wall-clock %.2fs, jobs=%u, cells: %zu requested, %zu "
                "unique, program cache: %llu builds, %llu hits]\n",
                seconds, jobs, matrix.requested, matrix.unique(),
                static_cast<unsigned long long>(cache.builds()),
                static_cast<unsigned long long>(cache.hits()));
    return 0;
}
