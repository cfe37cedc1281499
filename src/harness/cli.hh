/**
 * @file
 * Command-line interface of the `eipsim` driver tool: a tested, reusable
 * argument parser plus the run/report entry point. Keeping the parsing in
 * the harness library lets the unit tests cover it without spawning
 * processes.
 */

#ifndef EIP_HARNESS_CLI_HH
#define EIP_HARNESS_CLI_HH

#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace eip::harness {

/** Parsed command line of the eipsim tool. */
struct CliOptions
{
    enum class Action
    {
        Run,             ///< simulate and report
        ListWorkloads,
        ListPrefetchers,
        ShowConfig,      ///< print Table III
        Help,
    };

    Action action = Action::Run;
    /** Catalogue name, "all", or an on-disk trace path
     *  (.trc / .champsimtrace[.xz|.gz]). */
    std::string workload = "srv-1";
    /** Corpus traces appended to the batch catalogue (--suite-trace,
     *  repeatable; needs --workload all). Each is admitted through the
     *  per-trace MPKI qualification (trace::workloadQualifies); traces
     *  that fail it are skipped with a notice, not fatal. */
    std::vector<std::string> suiteTraces;
    std::string prefetcher = "entangling-4k";
    std::string dataPrefetcher = "none";
    uint64_t instructions = 600000;
    uint64_t warmup = 300000;
    /** Worker threads for batch runs (--workload all). 0 = auto: the
     *  EIP_JOBS environment variable, else hardware_concurrency();
     *  1 = every job on the calling thread. */
    unsigned jobs = 0;
    bool physical = false;
    bool wrongPath = false;
    /** Enable the cycle-level invariant auditor (src/check) for every
     *  Cpu this invocation constructs; equivalent to EIP_CHECK=1. A
     *  violated invariant is fatal with a dumped context. */
    bool check = false;
    bool json = false;
    /** When non-empty, write a machine-readable artifact here: one
     *  eip-run/v1 document for single runs, an eip-suite/v1 roll-up
     *  (plus per-job .rNNN.json files) for --workload all. */
    std::string statsJsonPath;
    /** Interval (measured instructions) of the counter time-series
     *  embedded in the artifact; 0 disables sampling. Only consulted
     *  when --stats-json is given. */
    uint64_t sampleInterval = 100000;
    /** Sampled simulation (DESIGN.md §3.13): "full" runs every measured
     *  instruction in detail; "periodic" alternates functional warming
     *  with detailed windows and reports per-metric confidence
     *  intervals. */
    std::string sampleMode = "full";
    /** Detailed instructions per sampling window (periodic mode). */
    uint64_t sampleWindow = 0;
    /** Instructions per sampling period: one window plus the functional
     *  warming gap (periodic mode; must be >= the window). */
    uint64_t samplePeriod = 0;
    /** Seed of the systematic sampling offset (periodic mode). */
    uint64_t sampleSeed = 0;
    /** Functional-warming bound per gap: warm only the last N
     *  instructions before each window and fast-forward the rest at
     *  source level; 0 warms whole gaps (periodic mode). */
    uint64_t sampleWarm = 0;
    /** When non-empty, record an event trace of the run and write it
     *  here as Chrome/Perfetto trace_event JSON (schema eip-trace/v1).
     *  Single-run facility: rejected with --workload all. */
    std::string traceOutPath;
    /** Comma-separated event families kept in the trace ring
     *  ("pf,stall,cache"). Roll-up counts always cover every family. */
    std::string traceEvents = "pf,stall,cache";
    /** Trace ring capacity in events; beyond it the oldest events are
     *  overwritten (counts stay exact). */
    uint64_t traceLimit = 1u << 20;
    /** Miss attribution (--why, DESIGN.md §3.11): classify every L1I
     *  demand miss of the measured window into the blame taxonomy and
     *  embed the eip-why/v1 section in the artifact. Works for single
     *  runs and batches. */
    bool why = false;
    /** Hot-miss PC table depth of the why section (--why-top; implies
     *  --why). */
    uint64_t whyTop = 10;
    /** Structured-log threshold (--log-level). Empty keeps the EIP_LOG
     *  environment default (warn). */
    std::string logLevel;
    std::string error; ///< non-empty when parsing failed
};

/** Parse argv (excluding argv[0]). Never exits; errors land in .error. */
CliOptions parseCli(const std::vector<std::string> &args);

/** The tool's usage text. */
std::string cliUsage();

/** Serialize one run result as a JSON object (single line). */
std::string resultToJson(const RunResult &result);

/**
 * Execute the parsed options end-to-end and print the report to stdout.
 * @return process exit code.
 */
int runCli(const CliOptions &options);

} // namespace eip::harness

#endif // EIP_HARNESS_CLI_HH
