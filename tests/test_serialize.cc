/**
 * @file
 * Tests for the canonical serialization layer (exec/canonical.hh,
 * harness/canonical.hh): round-trips through the JSON parser, field
 * sensitivity (including sub-6-digit double differences the old
 * ProgramCache key collapsed), and golden FNV-1a hashes that pin the
 * exact canonical bytes of the default configs — the serve result
 * cache's content addresses must never change silently.
 */

#include <gtest/gtest.h>

#include <string>

#include "exec/canonical.hh"
#include "harness/canonical.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "sim/config.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"

namespace {

using namespace eip;

std::string
digest(const std::string &text)
{
    return util::hex64(util::fnv1a64(text));
}

TEST(CanonicalSerialization, ProgramConfigRoundTripsThroughParser)
{
    trace::ProgramConfig cfg;
    std::string text = exec::canonicalProgramConfig(cfg);
    std::string error;
    std::optional<obs::JsonValue> doc = obs::parseJson(text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_EQ(doc->type, obs::JsonValue::Type::Object);
    EXPECT_EQ(doc->find("seed")->asU64(), cfg.seed);
    EXPECT_EQ(doc->find("num_functions")->asU64(), cfg.numFunctions);
    EXPECT_DOUBLE_EQ(doc->find("load_fraction")->number, cfg.loadFraction);
    // One-line document: the NDJSON protocol depends on it.
    EXPECT_EQ(text.find('\n'), std::string::npos);
}

TEST(CanonicalSerialization, SimConfigRoundTripsThroughParser)
{
    sim::SimConfig cfg;
    std::string text = harness::canonicalSimConfig(cfg);
    std::string error;
    std::optional<obs::JsonValue> doc = obs::parseJson(text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("fetch_width")->asU64(), cfg.fetchWidth);
    const obs::JsonValue *l1i = doc->find("l1i");
    ASSERT_NE(l1i, nullptr);
    EXPECT_EQ(l1i->find("size_bytes")->asU64(), cfg.l1i.sizeBytes);
    EXPECT_EQ(l1i->find("ways")->asU64(), cfg.l1i.ways);
}

TEST(CanonicalSerialization, RunSpecRoundTripsThroughParser)
{
    harness::RunSpec spec;
    spec.configId = "entangling-4k";
    spec.instructions = 5000000;
    std::string text = harness::canonicalRunSpec(spec);
    std::string error;
    std::optional<obs::JsonValue> doc = obs::parseJson(text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("config_id")->string, "entangling-4k");
    EXPECT_EQ(doc->find("instructions")->asU64(), 5000000u);
}

TEST(CanonicalSerialization, SeventhDigitDoubleDifferenceIsVisible)
{
    // Regression for the old ProgramCache key: default iostream
    // precision (6 significant digits) collapsed these two configs
    // into one key. %.17g must keep them apart.
    trace::ProgramConfig a;
    trace::ProgramConfig b;
    a.loadFraction = 0.25;
    b.loadFraction = 0.2500001;
    EXPECT_NE(exec::canonicalProgramConfig(a),
              exec::canonicalProgramConfig(b));
}

TEST(CanonicalSerialization, EveryRunSpecFieldIsKeyed)
{
    harness::RunSpec base;
    auto key = [&](const harness::RunSpec &spec) {
        return harness::canonicalRunSpec(spec);
    };

    harness::RunSpec changed = base;
    changed.configId = "nextline";
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.instructions += 1;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.warmup += 1;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.physicalL1i = !changed.physicalL1i;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.dataPrefetcher = "stride";
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.wrongPath = !changed.wrongPath;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.sampleInterval = 12345;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.collectCounters = !changed.collectCounters;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.sampleMode = "periodic";
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.sampleWindow = 10000;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.samplePeriod = 40000;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.sampleSeed = 7;
    EXPECT_NE(key(changed), key(base));
    changed = base;
    changed.sampleWarm = 5000;
    EXPECT_NE(key(changed), key(base));
}

TEST(CanonicalSerialization, TraceWorkloadsKeyOnContentDigest)
{
    // Trace-backed workloads insert kind/trace_bytes/trace_digest into
    // the canonical form (the synthetic form stays byte-identical, so
    // pre-existing cache keys survive). Identity is the content digest,
    // never the path.
    trace::Workload synthetic = trace::tinyWorkload();
    trace::Workload traced = synthetic;
    traced.kind = trace::WorkloadKind::ChampSim;
    traced.tracePath = "/some/where/fixture.champsimtrace.xz";
    traced.traceBytes = 384000;
    traced.traceDigest = "0123456789abcdef";

    const std::string form = harness::canonicalWorkload(traced);
    EXPECT_NE(form.find("\"kind\":\"champsim\""), std::string::npos);
    EXPECT_NE(form.find("\"trace_bytes\":384000"), std::string::npos);
    EXPECT_NE(form.find("\"trace_digest\":\"0123456789abcdef\""),
              std::string::npos);
    EXPECT_NE(form, harness::canonicalWorkload(synthetic));
    EXPECT_EQ(form.find("champsimtrace"), std::string::npos)
        << "the trace path must not enter the canonical form";

    // Same path, different content digest: different identity.
    trace::Workload other = traced;
    other.traceDigest = "fedcba9876543210";
    EXPECT_NE(harness::canonicalWorkload(other), form);
    EXPECT_NE(harness::resultCacheKey("v1", sim::SimConfig{},
                                      harness::RunSpec{}, other),
              harness::resultCacheKey("v1", sim::SimConfig{},
                                      harness::RunSpec{}, traced));
}

TEST(CanonicalSerialization, TracerDoesNotEnterTheCanonicalForm)
{
    // The tracer is a pure observer; two specs differing only in it
    // must share a cache key.
    harness::RunSpec with_tracer;
    with_tracer.tracer = reinterpret_cast<obs::EventTracer *>(0x1);
    harness::RunSpec without;
    EXPECT_EQ(harness::canonicalRunSpec(with_tracer),
              harness::canonicalRunSpec(without));
}

TEST(ResultCacheKey, ShapeAndSensitivity)
{
    sim::SimConfig cfg;
    harness::RunSpec spec;
    trace::Workload workload = trace::tinyWorkload();

    std::string key = harness::resultCacheKey("v1", cfg, spec, workload);
    ASSERT_EQ(key.size(), 16u);
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);

    // Deterministic...
    EXPECT_EQ(key, harness::resultCacheKey("v1", cfg, spec, workload));
    // ...and sensitive to every part of the address.
    EXPECT_NE(key, harness::resultCacheKey("v2", cfg, spec, workload));
    sim::SimConfig cfg2 = cfg;
    cfg2.l1i.sizeBytes *= 2;
    EXPECT_NE(key, harness::resultCacheKey("v1", cfg2, spec, workload));
    harness::RunSpec spec2 = spec;
    spec2.instructions += 1;
    EXPECT_NE(key, harness::resultCacheKey("v1", cfg, spec2, workload));
    trace::Workload workload2 = trace::tinyWorkload(2);
    EXPECT_NE(key, harness::resultCacheKey("v1", cfg, spec, workload2));
}

// Golden digests of the canonical bytes of the default configs. These
// pin the serialization format AND the defaults: if either changes,
// every content address changes with it — update these constants only
// as a conscious, reviewed decision (stale daemon caches become cold,
// which is safe; silent drift is what must not happen).
TEST(CanonicalSerialization, GoldenDigestsPinTheFormat)
{
    EXPECT_EQ(digest(exec::canonicalProgramConfig(trace::ProgramConfig{})),
              "50a8177abac59216");
    EXPECT_EQ(digest(exec::canonicalExecutorConfig(trace::ExecutorConfig{})),
              "bd21d74ba45aa9f5");
    // Re-pinned when the event-skipping key left SimConfig and RunSpec
    // (event-driven skipping became the only schedule, so the knob is
    // gone) — a conscious format change; every cached key went cold.
    EXPECT_EQ(digest(harness::canonicalSimConfig(sim::SimConfig{})),
              "5f165d4c9c37444a");
    // Also re-pinned earlier when the sampled-simulation fields
    // (sample_mode/window/period/seed/warm) entered the canonical form.
    EXPECT_EQ(digest(harness::canonicalRunSpec(harness::RunSpec{})),
              "2cd49db9eb90be2e");
    EXPECT_EQ(digest(harness::canonicalWorkload(trace::tinyWorkload())),
              "f5541ee1de68d03a");
    EXPECT_EQ(harness::resultCacheKey("golden", sim::SimConfig{},
                                      harness::RunSpec{},
                                      trace::tinyWorkload()),
              "f5daa562357495f2");
}

} // namespace
