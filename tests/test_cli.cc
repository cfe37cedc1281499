/**
 * @file
 * Tests for the eipsim command-line interface: argument parsing, error
 * handling, JSON serialization, and end-to-end runCli() actions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/cli.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"

namespace eip::harness {
namespace {

CliOptions
parse(std::initializer_list<const char *> args)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    return parseCli(v);
}

TEST(Cli, DefaultsAreSane)
{
    CliOptions opt = parse({});
    EXPECT_TRUE(opt.error.empty());
    EXPECT_EQ(opt.action, CliOptions::Action::Run);
    EXPECT_EQ(opt.workload, "srv-1");
    EXPECT_EQ(opt.prefetcher, "entangling-4k");
    EXPECT_EQ(opt.instructions, 600000u);
    EXPECT_FALSE(opt.json);
}

TEST(Cli, ParsesEveryOption)
{
    CliOptions opt = parse({"--workload", "fp-2", "--prefetcher", "rdip",
                            "--instructions", "12345", "--warmup", "678",
                            "--physical", "--wrong-path", "--json"});
    EXPECT_TRUE(opt.error.empty());
    EXPECT_EQ(opt.workload, "fp-2");
    EXPECT_EQ(opt.prefetcher, "rdip");
    EXPECT_EQ(opt.instructions, 12345u);
    EXPECT_EQ(opt.warmup, 678u);
    EXPECT_TRUE(opt.physical);
    EXPECT_TRUE(opt.wrongPath);
    EXPECT_TRUE(opt.json);
}

TEST(Cli, CheckFlagParses)
{
    EXPECT_FALSE(parse({}).check);
    CliOptions opt = parse({"--check"});
    EXPECT_TRUE(opt.error.empty());
    EXPECT_TRUE(opt.check);
}

TEST(Cli, ActionsParse)
{
    EXPECT_EQ(parse({"--help"}).action, CliOptions::Action::Help);
    EXPECT_EQ(parse({"--list-workloads"}).action,
              CliOptions::Action::ListWorkloads);
    EXPECT_EQ(parse({"--list-prefetchers"}).action,
              CliOptions::Action::ListPrefetchers);
    EXPECT_EQ(parse({"--config"}).action, CliOptions::Action::ShowConfig);
}

TEST(Cli, ErrorsAreReportedNotFatal)
{
    EXPECT_FALSE(parse({"--bogus"}).error.empty());
    EXPECT_FALSE(parse({"--workload"}).error.empty()); // missing value
    EXPECT_FALSE(parse({"--instructions", "abc"}).error.empty());
    EXPECT_FALSE(parse({"--instructions", "0"}).error.empty());
    EXPECT_FALSE(parse({"--jobs", "many"}).error.empty());
    EXPECT_FALSE(parse({"--jobs", "9999"}).error.empty()); // > 4096
    EXPECT_FALSE(parse({"--trace", "x.trc"}).error.empty()); // use --workload
}

TEST(Cli, JobsFlagParses)
{
    EXPECT_EQ(parse({}).jobs, 0u); // 0 = auto (EIP_JOBS or all cores)
    EXPECT_EQ(parse({"--jobs", "4"}).jobs, 4u);
    EXPECT_EQ(parse({"--jobs", "1"}).jobs, 1u);
}

TEST(Cli, SuiteTraceAccumulates)
{
    EXPECT_TRUE(parse({}).suiteTraces.empty());
    CliOptions opt = parse({"--workload", "all", "--suite-trace", "a.trc",
                            "--suite-trace", "b.champsimtrace.xz"});
    EXPECT_TRUE(opt.error.empty()) << opt.error;
    ASSERT_EQ(opt.suiteTraces.size(), 2u);
    EXPECT_EQ(opt.suiteTraces[0], "a.trc");
    EXPECT_EQ(opt.suiteTraces[1], "b.champsimtrace.xz");
    EXPECT_FALSE(parse({"--suite-trace"}).error.empty()); // missing value
}

TEST(Cli, TraceOutFlagsParse)
{
    CliOptions opt = parse({});
    EXPECT_TRUE(opt.traceOutPath.empty());
    EXPECT_EQ(opt.traceEvents, "pf,stall,cache");
    EXPECT_EQ(opt.traceLimit, 1u << 20);

    opt = parse({"--trace-out", "/tmp/t.json", "--trace-events",
                 "pf,stall", "--trace-limit", "4096"});
    EXPECT_TRUE(opt.error.empty()) << opt.error;
    EXPECT_EQ(opt.traceOutPath, "/tmp/t.json");
    EXPECT_EQ(opt.traceEvents, "pf,stall");
    EXPECT_EQ(opt.traceLimit, 4096u);
}

TEST(Cli, TraceOutFlagErrors)
{
    EXPECT_FALSE(parse({"--trace-out"}).error.empty()); // missing value
    EXPECT_FALSE(parse({"--trace-events", "bogus"}).error.empty());
    EXPECT_FALSE(parse({"--trace-events", ""}).error.empty());
    EXPECT_FALSE(parse({"--trace-limit", "0"}).error.empty());
    EXPECT_FALSE(parse({"--trace-limit", "abc"}).error.empty());
}

TEST(Cli, UsageMentionsAllFlags)
{
    std::string usage = cliUsage();
    for (const char *flag :
         {"--workload", "--suite-trace", "--prefetcher",
          "--instructions",
          "--warmup", "--jobs", "--physical", "--wrong-path", "--json",
          "--trace-out", "--trace-events", "--trace-limit",
          "--list-workloads", "--list-prefetchers", "--config"}) {
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
    }
}

TEST(Cli, JsonSerializationWellFormed)
{
    RunResult r;
    r.workload = "w";
    r.configName = "c";
    r.storageKB = 1.5;
    r.stats.instructions = 100;
    r.stats.cycles = 50;
    std::string json = resultToJson(r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"ipc\":2"), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"w\""), std::string::npos);
    // Balanced quotes.
    EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(Cli, RunCliRejectsBadInput)
{
    EXPECT_EQ(runCli(parse({"--bogus"})), 2);
    EXPECT_EQ(runCli(parse({"--workload", "no-such-workload",
                            "--instructions", "1000"})),
              2);
}

TEST(Cli, RunCliInformationalActionsSucceed)
{
    EXPECT_EQ(runCli(parse({"--help"})), 0);
    EXPECT_EQ(runCli(parse({"--config"})), 0);
    EXPECT_EQ(runCli(parse({"--list-prefetchers"})), 0);
}

TEST(Cli, RunCliEndToEnd)
{
    EXPECT_EQ(runCli(parse({"--workload", "tiny", "--prefetcher",
                            "nextline", "--instructions", "50000",
                            "--warmup", "10000", "--json"})),
              0);
}

TEST(Cli, RunCliWritesAParsableTraceArtifact)
{
    std::string path = ::testing::TempDir() + "cli_trace.json";
    EXPECT_EQ(runCli(parse({"--workload", "tiny", "--prefetcher",
                            "nextline", "--instructions", "50000",
                            "--warmup", "10000", "--trace-out",
                            path.c_str(), "--trace-limit", "2048"})),
              0);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "trace artifact missing: " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    auto doc = obs::parseTrace(buf.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->limit, 2048u);
    EXPECT_GT(doc->recorded, 0u);
    // The harness stamped run provenance into the meta block.
    bool has_workload = false;
    for (const auto &[key, value] : doc->meta)
        has_workload |= key == "workload" && value == "tiny";
    EXPECT_TRUE(has_workload);
    std::remove(path.c_str());
}

TEST(Cli, RunCliBatchModeRunsWholeCatalogue)
{
    EXPECT_EQ(runCli(parse({"--workload", "all", "--prefetcher", "none",
                            "--instructions", "20000", "--warmup", "5000",
                            "--jobs", "4", "--json"})),
              0);
    // Wrong-path modelling is a single-run feature.
    EXPECT_EQ(runCli(parse({"--workload", "all", "--wrong-path",
                            "--instructions", "1000"})),
              2);
    // So is event tracing.
    EXPECT_EQ(runCli(parse({"--workload", "all", "--trace-out",
                            "/tmp/batch.json", "--instructions", "1000"})),
              2);
}

} // namespace
} // namespace eip::harness
