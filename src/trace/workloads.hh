/**
 * @file
 * Workload catalogue: synthetic stand-ins for the CVP-1/2 trace categories
 * (crypto / int / fp / srv) and the CloudSuite applications evaluated in the
 * paper, plus trace-backed workloads replayed from on-disk files (our own
 * captured `.trc` streams and external ChampSim traces). Synthetic entries
 * are a (generator config, executor config) pair the harness builds and
 * executes on demand; trace-backed entries carry the file path and a
 * content digest so two different traces can never alias one identity.
 */

#ifndef EIP_TRACE_WORKLOADS_HH
#define EIP_TRACE_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/executor.hh"
#include "trace/program_builder.hh"

namespace eip::trace {

/** How a workload's instruction stream is produced. */
enum class WorkloadKind : uint8_t
{
    Synthetic, ///< generated CFG walked by the Executor
    EipTrace,  ///< our binary `.trc` capture format (trace_file.hh)
    ChampSim,  ///< ChampSim `.champsimtrace{,.xz,.gz}` (champsim.hh)
};

/** Stable lower-case name of @p kind ("synthetic", "eip-trace",
 *  "champsim") — used in canonical serializations and manifests. */
const char *workloadKindName(WorkloadKind kind);

/** A named workload. Synthetic entries are fully described by the
 *  (program, exec) configs; trace-backed entries by the trace content
 *  (path is where the bytes live, digest is what they are). */
struct Workload
{
    std::string name;
    std::string category; ///< crypto | int | fp | srv | cloud | trace
    ProgramConfig program;
    ExecutorConfig exec;

    /** Stream backend; trace-backed kinds ignore (program, exec) at run
     *  time but keep them as provenance for captured synthetics. */
    WorkloadKind kind = WorkloadKind::Synthetic;
    /** On-disk trace file (trace-backed kinds only). */
    std::string tracePath;
    /** Size in bytes of the trace file as stored (compressed size for
     *  .xz/.gz ChampSim traces). */
    uint64_t traceBytes = 0;
    /** 16-hex-digit FNV-1a digest of the trace file bytes. Part of the
     *  workload's canonical identity: two different traces at the same
     *  path get different digests, so artifacts and serve-cache entries
     *  can never alias on the path alone. */
    std::string traceDigest;
};

/** Base generator config for one CVP category (before seeding). */
ProgramConfig categoryConfig(const std::string &category);

/**
 * The CVP-like suite, category-major (crypto, int, fp, srv): the first
 * @p seeds_per_category (1..3) pinned seeds of each, named
 * "<category>-<k>". The paper evaluates only CVP traces with >= 1 L1I
 * MPKI; the pinned seeds are each category's first three candidates that
 * pass workloadQualifies. A test re-runs that search and requires this
 * table, so a generator change cannot silently change the suite.
 */
std::vector<Workload> cvpSuite(int seeds_per_category = 3);

/** CloudSuite-like applications: cassandra, cloud9, nutch, streaming. */
std::vector<Workload> cloudSuite();

/** A small, fast workload for tests and the quickstart example. */
Workload tinyWorkload(uint64_t seed = 1);

/** The synthetic workload named @p name: a cvpSuite() entry, a
 *  cloudSuite() application or "tiny". Builds only that entry; false
 *  for any other name. */
bool syntheticWorkload(const std::string &name, Workload &out);

/** Does @p path name a supported on-disk trace (by extension):
 *  `.trc`, `.champsimtrace`, `.champsimtrace.xz`, `.champsimtrace.gz`? */
bool isTracePath(const std::string &path);

/**
 * Build a trace-backed workload from an on-disk trace file: stats the
 * file and digests its bytes (FNV-1a over the stored bytes, so the
 * digest is cheap even for compressed traces). Non-fatal: returns false
 * with a diagnostic in @p error (when non-null) on an unreadable or
 * unsupported file, so a daemon can reject bad submissions instead of
 * dying. Name is the path's basename, category "trace".
 */
bool tryTraceWorkload(const std::string &path, Workload &out,
                      std::string *error = nullptr);

/**
 * The suite's selection probe, for any workload kind: stream one
 * recurrence window (400k instructions) of @p workload and accept a
 * dynamic code footprint >= 40KB, the proxy for >= 1 L1I MPKI. It picked
 * the cvpSuite seeds and gates on-disk traces into mixed catalogues.
 * @p footprint_bytes, when non-null, receives the footprint either way.
 * Traces shorter than the window wrap (InstructionSource loops), so the
 * probe saturates at the trace's whole code footprint.
 */
bool workloadQualifies(const Workload &workload,
                       uint64_t *footprint_bytes = nullptr);

/**
 * Identity-preserving capture/replay pin: a workload that replays
 * @p path (an eip `.trc` capture of @p origin's stream) while keeping
 * the origin's name, category, and generator/executor provenance. The
 * capture's content digest still enters the canonical identity, so a
 * stale or foreign file at the path can never masquerade as the
 * capture it replaced.
 */
Workload capturedWorkload(const Workload &origin, const std::string &path);

} // namespace eip::trace

#endif // EIP_TRACE_WORKLOADS_HH
