/**
 * @file
 * Tests for the parallel experiment-execution subsystem: the batch
 * loop's threads, ordering and exception capture, the shared program
 * cache, the EIP_JOBS knob, and the bit-identical serial-vs-parallel
 * guarantee of runSuite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "exec/jobs.hh"
#include "exec/program_cache.hh"
#include "obs/registry.hh"
#include "exec/run_batch.hh"
#include "harness/runner.hh"
#include "trace/workloads.hh"

namespace eip {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------ runBatch

TEST(RunBatch, PreservesSubmissionOrder)
{
    std::vector<int> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back(i);
    // Delay early jobs the most so completion order inverts submission
    // order; the result vector must be index-ordered anyway.
    auto fn = [](const int &i) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            100 * (64 - i)));
        return i * i;
    };
    auto parallel = exec::runBatch(jobs, 8, fn);
    auto serial = exec::runBatch(jobs, 1, fn);
    ASSERT_EQ(parallel.size(), jobs.size());
    EXPECT_EQ(parallel, serial);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(parallel[i], i * i);
}

TEST(RunBatch, EmptyBatchIsFine)
{
    std::vector<int> none;
    auto out = exec::runBatch(none, 4, [](const int &i) { return i; });
    EXPECT_TRUE(out.empty());
}

TEST(RunBatch, OneWorkerRunsEveryJobOnTheCallingThread)
{
    std::vector<int> jobs{0, 1, 2, 3, 4, 5};
    const std::thread::id caller = std::this_thread::get_id();
    auto threads = exec::runBatch(
        jobs, 1, [](const int &) { return std::this_thread::get_id(); });
    ASSERT_EQ(threads.size(), jobs.size());
    for (const std::thread::id &id : threads)
        EXPECT_EQ(id, caller);
}

TEST(RunBatch, NeverRunsMoreJobsAtOnceThanWorkers)
{
    std::vector<int> jobs(32);
    for (unsigned workers : {1u, 2u, 4u}) {
        std::atomic<int> running{0};
        std::atomic<int> peak{0};
        std::mutex mutex;
        std::set<std::thread::id> threads;
        exec::runBatch(jobs, workers, [&](const int &) {
            int now = ++running;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                threads.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(200us);
            --running;
            return 0;
        });
        EXPECT_LE(peak.load(), static_cast<int>(workers));
        EXPECT_LE(threads.size(), workers);
    }
}

TEST(RunBatch, RethrowsTheLowestIndexedFailureAfterEveryJobRan)
{
    std::vector<int> jobs{0, 1, 2, 3, 4, 5, 6, 7};
    for (unsigned workers : {1u, 4u}) {
        std::atomic<int> ran{0};
        auto fn = [&ran](const int &i) -> int {
            ++ran;
            if (i == 2 || i == 5)
                throw std::runtime_error("job " + std::to_string(i));
            return i;
        };
        try {
            exec::runBatch(jobs, workers, fn);
            ADD_FAILURE() << "no exception at " << workers << " workers";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 2") << workers << " workers";
        }
        EXPECT_EQ(ran.load(), 8) << workers << " workers";
    }
}

// -------------------------------------------------------------- ProgramCache

TEST(ProgramCache, BuildsOncePerConfigUnderConcurrentAccess)
{
    exec::ProgramCache cache;
    trace::Workload w = trace::tinyWorkload();

    std::vector<int> jobs(16);
    std::vector<std::shared_ptr<const trace::Program>> seen =
        exec::runBatch(jobs, 8, [&cache, &w](const int &) {
            return cache.get(w.program);
        });
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), seen.size() - 1);
    for (const auto &p : seen) {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p, seen.front()); // one shared instance, not copies
    }
}

TEST(ProgramCache, DistinctSeedsBuildDistinctPrograms)
{
    exec::ProgramCache cache;
    auto a = cache.get(trace::tinyWorkload(1).program);
    auto b = cache.get(trace::tinyWorkload(2).program);
    auto a2 = cache.get(trace::tinyWorkload(1).program);
    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, a2);
}

TEST(ProgramCache, ClearKeepsOutstandingProgramsAlive)
{
    exec::ProgramCache cache;
    auto a = cache.get(trace::tinyWorkload(1).program);
    uint64_t footprint = a->footprintBytes();
    cache.clear();
    EXPECT_EQ(a->footprintBytes(), footprint); // shared_ptr keeps it valid
    auto b = cache.get(trace::tinyWorkload(1).program);
    EXPECT_EQ(cache.builds(), 2u); // rebuilt after clear
    EXPECT_EQ(b->footprintBytes(), footprint);
}

TEST(ProgramCache, LruEvictionBoundsResidency)
{
    exec::ProgramCache cache(/*capacity=*/2);
    auto a = cache.get(trace::tinyWorkload(1).program);
    cache.get(trace::tinyWorkload(2).program);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);

    // Third distinct config evicts the least recently used (seed 1).
    cache.get(trace::tinyWorkload(3).program);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);

    // The evicted program stays alive through the outstanding
    // shared_ptr; re-requesting it builds a fresh instance.
    uint64_t footprint = a->footprintBytes();
    auto a2 = cache.get(trace::tinyWorkload(1).program);
    EXPECT_EQ(a->footprintBytes(), footprint);
    EXPECT_NE(a, a2);
    EXPECT_EQ(cache.builds(), 4u);
}

TEST(ProgramCache, RecencyProtectsTheHotEntry)
{
    exec::ProgramCache cache(/*capacity=*/2);
    cache.get(trace::tinyWorkload(1).program);
    cache.get(trace::tinyWorkload(2).program);
    // Touch seed 1: now seed 2 is the LRU victim.
    cache.get(trace::tinyWorkload(1).program);
    cache.get(trace::tinyWorkload(3).program);

    uint64_t builds = cache.builds();
    cache.get(trace::tinyWorkload(1).program); // still resident
    EXPECT_EQ(cache.builds(), builds);
    cache.get(trace::tinyWorkload(2).program); // evicted: rebuilds
    EXPECT_EQ(cache.builds(), builds + 1);
}

TEST(ProgramCache, RegisterStatsExposesEvictionVocabulary)
{
    exec::ProgramCache cache(/*capacity=*/1);
    cache.get(trace::tinyWorkload(1).program);
    cache.get(trace::tinyWorkload(2).program); // evicts seed 1
    cache.get(trace::tinyWorkload(2).program); // hit

    obs::CounterRegistry registry;
    cache.registerStats(registry, "program_cache");
    obs::CounterDump dump = registry.dump();
    EXPECT_EQ(dump.counter("program_cache.hits").value(), 1u);
    EXPECT_EQ(dump.counter("program_cache.builds").value(), 2u);
    EXPECT_EQ(dump.counter("program_cache.evictions").value(), 1u);
    EXPECT_EQ(dump.counter("program_cache.entries").value(), 1u);
    EXPECT_GE(dump.counter("program_cache.misses").value(), 2u);
}

// ------------------------------------------------------------ EIP_JOBS knob

TEST(Jobs, EnvOverrideAndAutoFallback)
{
    unsetenv("EIP_JOBS");
    EXPECT_GE(exec::defaultJobs(), 1u);

    setenv("EIP_JOBS", "3", 1);
    EXPECT_EQ(exec::defaultJobs(), 3u);
    EXPECT_EQ(exec::resolveJobs(0), 3u);
    EXPECT_EQ(exec::resolveJobs(7), 7u); // explicit request wins

    setenv("EIP_JOBS", "0", 1); // 0 = auto
    EXPECT_GE(exec::defaultJobs(), 1u);
    unsetenv("EIP_JOBS");
}

TEST(JobsDeathTest, GarbageEnvValuesAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setenv("EIP_JOBS", "fast", 1);
    EXPECT_EXIT(exec::defaultJobs(), ::testing::ExitedWithCode(1),
                "EIP_JOBS");
    setenv("EIP_JOBS", "-2", 1);
    EXPECT_EXIT(exec::defaultJobs(), ::testing::ExitedWithCode(1),
                "EIP_JOBS");
    setenv("EIP_JOBS", "8x", 1);
    EXPECT_EXIT(exec::defaultJobs(), ::testing::ExitedWithCode(1),
                "EIP_JOBS");
    unsetenv("EIP_JOBS");
}

TEST(SimScaleDeathTest, GarbageScaleIsFatalNotIgnored)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setenv("EIP_SIM_SCALE", "garbage", 1);
    EXPECT_EXIT(harness::RunSpec::defaultSpec(),
                ::testing::ExitedWithCode(1), "EIP_SIM_SCALE");
    setenv("EIP_SIM_SCALE", "nan", 1);
    EXPECT_EXIT(harness::RunSpec::defaultSpec(),
                ::testing::ExitedWithCode(1), "EIP_SIM_SCALE");
    setenv("EIP_SIM_SCALE", "-1", 1);
    EXPECT_EXIT(harness::RunSpec::defaultSpec(),
                ::testing::ExitedWithCode(1), "EIP_SIM_SCALE");
    unsetenv("EIP_SIM_SCALE");
}

TEST(SimScale, ValidScaleStillApplies)
{
    unsetenv("EIP_SIM_SCALE");
    harness::RunSpec base = harness::RunSpec::defaultSpec();
    setenv("EIP_SIM_SCALE", "2", 1);
    harness::RunSpec scaled = harness::RunSpec::defaultSpec();
    unsetenv("EIP_SIM_SCALE");
    EXPECT_EQ(scaled.instructions, base.instructions * 2);
    EXPECT_EQ(scaled.warmup, base.warmup * 2);
}

// ----------------------------------------------- serial/parallel determinism

TEST(RunSuiteDeterminism, ParallelIsBitIdenticalToSerial)
{
    std::vector<trace::Workload> suite{
        trace::tinyWorkload(1), trace::tinyWorkload(2),
        trace::tinyWorkload(3), trace::tinyWorkload(4),
        trace::tinyWorkload(5), trace::tinyWorkload(6)};
    harness::RunSpec spec;
    spec.configId = "entangling-2k";
    spec.instructions = 50000;
    spec.warmup = 20000;

    auto serial = harness::runSuite(suite, spec, 1);
    auto parallel = harness::runSuite(suite, spec, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const auto &a = serial[i];
        const auto &b = parallel[i];
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.stats.instructions, b.stats.instructions);
        EXPECT_EQ(a.stats.cycles, b.stats.cycles);
        EXPECT_EQ(a.stats.l1i.demandMisses, b.stats.l1i.demandMisses);
        EXPECT_EQ(a.stats.l1i.prefetchIssued, b.stats.l1i.prefetchIssued);
        EXPECT_EQ(a.stats.l1i.usefulPrefetches,
                  b.stats.l1i.usefulPrefetches);
        EXPECT_EQ(a.stats.l1i.latePrefetches, b.stats.l1i.latePrefetches);
        EXPECT_EQ(a.stats.branchMispredicts, b.stats.branchMispredicts);
        // Doubles compared exactly on purpose: bit-identical is the bar.
        EXPECT_EQ(a.stats.ipc(), b.stats.ipc());
        EXPECT_EQ(a.avgDestsPerHit, b.avgDestsPerHit);
        EXPECT_EQ(a.destBitsFractions, b.destBitsFractions);
    }
}

TEST(RunBatchHarness, MixedConfigMatrixKeepsOrder)
{
    std::vector<harness::RunJob> batch;
    for (uint64_t seed = 1; seed <= 2; ++seed) {
        for (const char *id : {"none", "nextline"}) {
            harness::RunJob job;
            job.workload = trace::tinyWorkload(seed);
            job.spec.configId = id;
            job.spec.instructions = 30000;
            job.spec.warmup = 10000;
            batch.push_back(job);
        }
    }
    auto serial = harness::runBatch(batch, 1);
    auto parallel = harness::runBatch(batch, 4);
    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), 4u);
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(serial[i].configName, parallel[i].configName);
        EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles);
    }
    EXPECT_EQ(serial[0].configName, "no");
    EXPECT_EQ(serial[1].configName, "NextLine");
}

} // namespace
} // namespace eip
