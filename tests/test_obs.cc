/**
 * @file
 * Tests for the observability layer (src/obs) and its harness wiring:
 * counter registry, interval sampler, JSON writer/parser round-trips,
 * run/suite artifacts (including the jobs-independence byte contract),
 * the corrected coverage semantics, and percentile interpolation in
 * the report helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "harness/artifacts.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "sim/stats.hh"
#include "trace/workloads.hh"
#include "util/stats_math.hh"

namespace eip {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------
// CounterRegistry
// ---------------------------------------------------------------------

TEST(Registry, ReadsLiveStorageInRegistrationOrder)
{
    uint64_t a = 1, b = 2;
    obs::CounterRegistry reg;
    reg.counter("x.a", &a);
    reg.counter("x.b", &b);
    reg.counter("x.sum", [&]() { return a + b; });

    EXPECT_EQ(reg.counterCount(), 3u);
    std::vector<uint64_t> first = reg.sampleCounters();
    EXPECT_EQ(first, (std::vector<uint64_t>{1, 2, 3}));

    // Live view: mutating the backing storage changes the next sample.
    a = 10;
    b = 20;
    std::vector<uint64_t> second = reg.sampleCounters();
    EXPECT_EQ(second, (std::vector<uint64_t>{10, 20, 30}));

    ASSERT_EQ(reg.counterNames().size(), 3u);
    EXPECT_EQ(reg.counterNames()[0], "x.a");
    EXPECT_EQ(reg.counterNames()[2], "x.sum");
}

TEST(Registry, DumpCoversAllKindsAndLookupByName)
{
    uint64_t events = 7;
    Histogram h(4);
    h.record(1);
    h.record(1);
    h.record(99); // overflow

    obs::CounterRegistry reg;
    reg.counter("k.events", &events);
    reg.gauge("k.ratio", []() { return 0.25; });
    reg.histogram("k.hist", &h);

    obs::CounterDump dump = reg.dump();
    EXPECT_EQ(dump.counter("k.events"), 7u);
    EXPECT_EQ(dump.counter("k.missing"), std::nullopt);
    EXPECT_EQ(dump.gauge("k.ratio"), 0.25);
    ASSERT_EQ(dump.histograms.size(), 1u);
    EXPECT_EQ(dump.histograms[0].first, "k.hist");
    EXPECT_EQ(dump.histograms[0].second.total, 3u);
    EXPECT_EQ(dump.histograms[0].second.overflow, 1u);
    EXPECT_EQ(dump.histograms[0].second.buckets[1], 2u);
}

// ---------------------------------------------------------------------
// IntervalSampler
// ---------------------------------------------------------------------

TEST(Sampler, SnapshotsAtBoundariesAtMostOnce)
{
    uint64_t counter = 0;
    obs::CounterRegistry reg;
    reg.counter("c", &counter);
    obs::IntervalSampler sampler(reg, 100);

    // Below the first boundary: nothing recorded.
    counter = 5;
    sampler.tick(50, 500);
    EXPECT_TRUE(sampler.samples().empty());

    // Crossing 100; repeated ticks at the same count must not re-sample.
    counter = 11;
    sampler.tick(100, 1000);
    sampler.tick(100, 1001);
    ASSERT_EQ(sampler.samples().size(), 1u);
    EXPECT_EQ(sampler.samples()[0].instructions, 100u);
    EXPECT_EQ(sampler.samples()[0].cycles, 1000u);
    EXPECT_EQ(sampler.samples()[0].values[0], 11u);

    // A tick that lands past several boundaries takes one snapshot (the
    // simulator calls tick every cycle; skipping means no data existed
    // at the intermediate boundary).
    counter = 40;
    sampler.tick(350, 3000);
    ASSERT_EQ(sampler.samples().size(), 2u);
    EXPECT_EQ(sampler.samples()[1].instructions, 350u);

    // Deltas are against the previous row (first row: cumulative).
    EXPECT_EQ(sampler.deltas(0), (std::vector<uint64_t>{11}));
    EXPECT_EQ(sampler.deltas(1), (std::vector<uint64_t>{29}));

    obs::SampleSeries series = sampler.series();
    EXPECT_EQ(series.interval, 100u);
    EXPECT_EQ(series.names, (std::vector<std::string>{"c"}));
    EXPECT_EQ(series.rows.size(), 2u);
}

// ---------------------------------------------------------------------
// JSON writer + parser
// ---------------------------------------------------------------------

TEST(Json, WriterProducesParsableDocuments)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("name", "a \"quoted\"\nstring");
    json.kv("count", static_cast<uint64_t>(1234567890123ULL));
    json.kv("ratio", 0.1);
    json.kv("flag", true);
    json.key("list").beginArray();
    json.value(1).value(2).value(3);
    json.endArray();
    json.endObject();

    std::string error;
    auto parsed = obs::parseJson(json.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->find("name")->string, "a \"quoted\"\nstring");
    EXPECT_EQ(parsed->find("count")->asU64(), 1234567890123ULL);
    EXPECT_DOUBLE_EQ(parsed->find("ratio")->number, 0.1);
    EXPECT_TRUE(parsed->find("flag")->boolean);
    ASSERT_EQ(parsed->find("list")->array.size(), 3u);
    EXPECT_EQ(parsed->find("list")->array[2].asU64(), 3u);
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("nan", std::nan(""));
    json.endObject();
    auto parsed = obs::parseJson(json.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("nan")->type, obs::JsonValue::Type::Null);
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_FALSE(obs::parseJson("{\"a\": }").has_value());
    EXPECT_FALSE(obs::parseJson("{\"a\": 1} trailing").has_value());
    EXPECT_FALSE(obs::parseJson("").has_value());
    std::string error;
    obs::JsonParseError kind = obs::JsonParseError::None;
    EXPECT_FALSE(obs::parseJson("[1, 2", &error, &kind).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(kind, obs::JsonParseError::Malformed);
}

TEST(Json, ParserBoundsNestingDepth)
{
    // 2 MB of '[' used to recurse once per byte until the stack
    // overflowed; it must be refused as too deep instead.
    std::string error;
    obs::JsonParseError kind = obs::JsonParseError::None;
    EXPECT_FALSE(obs::parseJson(std::string(2u << 20, '['), &error, &kind)
                     .has_value());
    EXPECT_EQ(kind, obs::JsonParseError::TooDeep);
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos);

    // The bound itself still parses; one level more does not.
    auto nested = [](size_t levels) {
        return std::string(levels, '[') + std::string(levels, ']');
    };
    auto at_bound = obs::parseJson(nested(obs::kMaxJsonDepth), &error, &kind);
    EXPECT_TRUE(at_bound.has_value()) << error;
    EXPECT_EQ(kind, obs::JsonParseError::None);
    EXPECT_FALSE(obs::parseJson(nested(obs::kMaxJsonDepth + 1), &error,
                                &kind)
                     .has_value());
    EXPECT_EQ(kind, obs::JsonParseError::TooDeep);
}

/** The key round-trip: every counter a real Cpu registers survives JSON
 *  serialization exactly, and the registry covers every SimStats field. */
TEST(Json, SimStatsRoundTripsThroughRunArtifact)
{
    harness::RunSpec spec;
    spec.configId = "entangling-4k";
    spec.instructions = 30000;
    spec.warmup = 5000;
    spec.collectCounters = true;
    harness::RunResult result = harness::runOne(trace::tinyWorkload(), spec);
    const sim::SimStats &stats = result.stats;
    ASSERT_GT(stats.l1i.demandMisses, 0u);

    // Cpu::registerCounters is the one cpu.* / dram.* schema: each core
    // SimStats field has its counter, reading the same value.
    const std::pair<const char *, uint64_t> core[] = {
        {"cpu.instructions", stats.instructions},
        {"cpu.cycles", stats.cycles},
        {"cpu.branches", stats.branches},
        {"cpu.branch_mispredicts", stats.branchMispredicts},
        {"cpu.btb_misses", stats.btbMisses},
        {"cpu.fetch_stall_line_miss", stats.fetchStallLineMiss},
        {"cpu.fetch_stall_ftq_empty", stats.fetchStallFtqEmpty()},
        {"cpu.fetch_stall_ftq_empty_mispredict",
         stats.fetchStallFtqEmptyMispredict},
        {"cpu.fetch_stall_ftq_empty_starved",
         stats.fetchStallFtqEmptyStarved},
        {"cpu.fetch_stall_rob_full", stats.fetchStallRobFull},
        {"cpu.fetch_idle_cycles", stats.fetchIdleCycles},
        {"dram.accesses", stats.dramAccesses},
        {"l1i.demand_misses", stats.l1i.demandMisses},
        {"llc.demand_misses", stats.llc.demandMisses},
    };
    for (const auto &[name, value] : core)
        EXPECT_EQ(result.counters.counter(name).value_or(~0ULL), value)
            << name;

    obs::RunManifest manifest;
    manifest.workload = "round-trip";
    std::string doc = harness::runArtifactJson(manifest, result,
                                               /*include_timing=*/true);

    std::string error;
    auto parsed = obs::parseJson(doc, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->find("schema")->string, obs::kRunSchema);

    const obs::JsonValue *counters = parsed->find("counters");
    ASSERT_NE(counters, nullptr);
    for (const auto &[name, value] : result.counters.counters) {
        const obs::JsonValue *member = counters->find(name);
        ASSERT_NE(member, nullptr) << name;
        EXPECT_EQ(member->asU64(), value) << name;
    }
    // Spot-check the derived buckets against the histogram source.
    EXPECT_EQ(counters->find("l1i.misses_short")->asU64(),
              stats.l1i.missesShort());
    EXPECT_EQ(counters->find("l1i.misses_medium")->asU64(),
              stats.l1i.missesMedium());
    EXPECT_EQ(counters->find("l1i.misses_long")->asU64(),
              stats.l1i.missesLong());
    EXPECT_GT(stats.l1i.missesShort() + stats.l1i.missesMedium() +
                  stats.l1i.missesLong(),
              0u);

    const obs::JsonValue *gauges = parsed->find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("cpu.ipc")->number, stats.ipc());
    EXPECT_DOUBLE_EQ(gauges->find("l1i.mpki")->number, stats.l1iMpki());
    EXPECT_DOUBLE_EQ(gauges->find("l1i.coverage")->number,
                     stats.l1i.coverage());

    // The timing fields are present here and absent without the flag.
    EXPECT_NE(parsed->find("manifest")->find("wall_clock_seconds"), nullptr);
    std::string no_timing = harness::runArtifactJson(
        manifest, result, /*include_timing=*/false);
    auto parsed2 = obs::parseJson(no_timing);
    ASSERT_TRUE(parsed2.has_value());
    EXPECT_EQ(parsed2->find("manifest")->find("wall_clock_seconds"),
              nullptr);
    EXPECT_EQ(parsed2->find("manifest")->find("jobs"), nullptr);
}

// ---------------------------------------------------------------------
// Coverage semantics (regression for the late-prefetch double count)
// ---------------------------------------------------------------------

TEST(CoverageSemantics, LatePrefetchesLeaveTheDenominator)
{
    sim::CacheStats s;
    s.demandAccesses = 1000;
    s.demandMisses = 200;
    s.usefulPrefetches = 100;
    s.latePrefetches = 50;
    // Would-be misses: 100 timely-covered + (200 - 50) uncovered. The
    // 50 in-flight-covered misses are neither numerator (latency only
    // partly hidden) nor denominator (not a full would-be miss: the
    // prefetcher did act on them; accuracy/late counters attribute the
    // lateness).
    EXPECT_EQ(s.uncoveredMisses(), 150u);
    EXPECT_DOUBLE_EQ(s.coverage(), 100.0 / 250.0);

    // Degenerate corners stay in [0, 1].
    s.latePrefetches = 200; // every miss merged into a prefetch
    EXPECT_DOUBLE_EQ(s.coverage(), 1.0);
    s.usefulPrefetches = 0;
    EXPECT_DOUBLE_EQ(s.coverage(), 0.0);
}

// ---------------------------------------------------------------------
// Percentiles (linear interpolation) and the sorted-series record
// ---------------------------------------------------------------------

TEST(Percentile, LinearInterpolationOnShortSeries)
{
    std::vector<double> two{1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(two, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(percentile(two, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(two, 1.0), 2.0);

    std::vector<double> five{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(five, 0.10), 1.4);
    EXPECT_DOUBLE_EQ(percentile(five, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(percentile(five, 0.90), 4.6);

    EXPECT_DOUBLE_EQ(percentile({42.0}, 0.9), 42.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(ReportRecord, SortedSeriesRecordsInterpolatedPercentiles)
{
    const harness::ReportRecord rec = harness::sortedSeries(
        "obs-test series", {"cfg"}, {{5.0, 1.0, 3.0, 2.0, 4.0}});
    EXPECT_EQ(rec.title, "obs-test series");
    ASSERT_EQ(rec.columns.size(), 7u); // min p10 p25 p50 p75 p90 max
    ASSERT_EQ(rec.rows.size(), 1u);
    EXPECT_EQ(rec.rows[0].label, "cfg");
    const std::vector<double> &cells = rec.rows[0].values;
    ASSERT_EQ(cells.size(), 7u);
    EXPECT_DOUBLE_EQ(cells[0], 1.0); // min
    EXPECT_DOUBLE_EQ(cells[1], 1.4); // p10 interpolated
    EXPECT_DOUBLE_EQ(cells[3], 3.0); // p50
    EXPECT_DOUBLE_EQ(cells[5], 4.6); // p90 interpolated
    EXPECT_DOUBLE_EQ(cells[6], 5.0); // max
}

// ---------------------------------------------------------------------
// End-to-end: live Cpu counters, sampling, artifacts, jobs contract
// ---------------------------------------------------------------------

TEST(ObsEndToEnd, RunOneCollectsCountersAndSamples)
{
    trace::Workload tiny = trace::tinyWorkload();
    harness::RunSpec spec;
    spec.configId = "entangling-4k";
    spec.instructions = 60000;
    spec.warmup = 20000;
    spec.collectCounters = true;
    spec.sampleInterval = 20000;

    harness::RunResult result = harness::runOne(tiny, spec);

    // Final counter values agree with the returned SimStats.
    EXPECT_EQ(result.counters.counter("cpu.instructions"),
              result.stats.instructions);
    EXPECT_EQ(result.counters.counter("cpu.cycles"), result.stats.cycles);
    EXPECT_EQ(result.counters.counter("l1i.demand_misses"),
              result.stats.l1i.demandMisses);
    EXPECT_EQ(result.counters.counter("dram.accesses"),
              result.stats.dramAccesses);

    // The attached prefetcher exported its custom counters.
    EXPECT_TRUE(
        result.counters.counter("entangling.pairs_created").has_value());
    EXPECT_TRUE(
        result.counters.counter("entangling.table_hits").has_value());
    EXPECT_TRUE(
        result.counters.counter("entangling.table.inserts").has_value());

    // 60k instructions / 20k interval: at least two snapshots, counters
    // monotonic row to row.
    ASSERT_GE(result.samples.rows.size(), 2u);
    EXPECT_EQ(result.samples.interval, 20000u);
    EXPECT_EQ(result.samples.names.size(),
              result.counters.counters.size());
    for (size_t i = 1; i < result.samples.rows.size(); ++i) {
        EXPECT_GT(result.samples.rows[i].instructions,
                  result.samples.rows[i - 1].instructions);
        for (size_t c = 0; c < result.samples.rows[i].values.size(); ++c) {
            EXPECT_GE(result.samples.rows[i].values[c],
                      result.samples.rows[i - 1].values[c]);
        }
    }
}

TEST(ObsEndToEnd, SamplingDoesNotPerturbResults)
{
    trace::Workload tiny = trace::tinyWorkload();
    harness::RunSpec plain;
    plain.configId = "nextline";
    plain.instructions = 40000;
    plain.warmup = 10000;

    harness::RunSpec sampled = plain;
    sampled.collectCounters = true;
    sampled.sampleInterval = 5000;

    sim::SimStats a = harness::runOne(tiny, plain).stats;
    sim::SimStats b = harness::runOne(tiny, sampled).stats;
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1i.demandMisses, b.l1i.demandMisses);
    EXPECT_EQ(a.l1i.usefulPrefetches, b.l1i.usefulPrefetches);
}

TEST(ObsEndToEnd, SuiteRollupIsByteIdenticalAcrossJobCounts)
{
    std::vector<harness::RunJob> batch;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        harness::RunSpec spec;
        spec.configId = seed % 2 == 0 ? "nextline" : "entangling-2k";
        spec.instructions = 20000;
        spec.warmup = 10000;
        spec.sampleInterval = 10000;
        batch.push_back(
            harness::RunJob{trace::tinyWorkload(seed), spec});
    }

    std::string dir = ::testing::TempDir();
    std::string serial = dir + "obs_suite_serial.json";
    std::string pooled = dir + "obs_suite_pooled.json";
    std::vector<harness::RunResult> r1 =
        harness::runBatchWithArtifacts(batch, 1, serial);
    std::vector<harness::RunResult> r4 =
        harness::runBatchWithArtifacts(batch, 4, pooled);
    ASSERT_EQ(r1.size(), batch.size());
    ASSERT_EQ(r4.size(), batch.size());

    // The roll-up and every per-job artifact match byte for byte.
    EXPECT_EQ(readFile(serial), readFile(pooled));
    for (size_t i = 0; i < batch.size(); ++i) {
        std::string a = harness::perJobArtifactPath(serial, i);
        std::string b = harness::perJobArtifactPath(pooled, i);
        EXPECT_EQ(readFile(a), readFile(b)) << a;
        std::remove(a.c_str());
        std::remove(b.c_str());
    }

    // The roll-up parses, carries the right schema, and contains one
    // run per job in submission order with no timing fields.
    std::string error;
    auto parsed = obs::parseJson(readFile(serial), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->find("schema")->string, obs::kSuiteSchema);
    EXPECT_EQ(parsed->find("run_count")->asU64(), batch.size());
    const obs::JsonValue *runs = parsed->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const obs::JsonValue &run = runs->array[i];
        EXPECT_EQ(run.find("schema")->string, obs::kRunSchema);
        EXPECT_EQ(run.find("manifest")->find("workload")->string,
                  batch[i].workload.name);
        EXPECT_EQ(run.find("manifest")->find("wall_clock_seconds"),
                  nullptr);
        // Interval samples made it into the artifact.
        EXPECT_GE(run.find("samples")->find("rows")->array.size(), 1u);
    }
    std::remove(serial.c_str());
    std::remove(pooled.c_str());
}

} // namespace
} // namespace eip
