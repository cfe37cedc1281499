/**
 * @file
 * Shared types of the benchmark driver: options, pinned digests, the
 * per-run sample sets, the workload interface and the layer probes.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "serve/protocol.hh"
#include "sim/stats.hh"
#include "trace/workloads.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    /** Compute the digests of every cell the workload can run and write
     *  them to pinsPath instead of checking against it. */
    bool pin = false;
    /** Corrupt one served artifact before it is checked (shows that the
     *  serve correctness gate fires). */
    bool tamper = false;
    std::string pinsPath;
    std::string fixturePath;
    std::string outDir;
};

/** Digests of simulated results, pinned with the benchmark. */
class Pins
{
  public:
    bool load(const std::string &path, std::string *error);
    bool save(const std::string &path) const;

    /** True when @p digest matches the pinned digest of @p cell. In pin
     *  mode every digest is accepted and recorded. */
    bool check(const std::string &cell, const std::string &digest);

    bool pinning = false;
    /** Pin mode: cells seen twice with different digests. */
    uint64_t conflicts = 0;

  private:
    std::mutex mutex_;
    std::map<std::string, std::string> digests_;
    std::map<std::string, std::string> pinnedNow_; ///< this process's
};

/** Digest of every simulated statistic of a run. */
std::string statsDigest(const eip::sim::SimStats &stats);

/** Digest of the counters section of an eip-run/v1 artifact (what a
 *  served artifact simulated); empty when the text does not parse. */
std::string artifactCountersDigest(const std::string &artifact);

/** Everything a run measures. A window is one pass over a workload's
 *  cells (or a one-second slice of the request storm). */
struct Samples
{
    /** Record a window; rates are kept per window for the steadiness
     *  report and summed for the run's aggregate. */
    void window(double seconds, double instructions, double completed);

    std::vector<double> windowMips;
    std::vector<double> windowRps;
    double seconds = 0.0;
    double instructions = 0.0;
    double completed = 0.0;

    /** Run one calibration chunk and keep its time (call between timed
     *  units, never inside one). */
    void calibrate();
    std::vector<double> calibrationMs;

    std::vector<double> coldMs;
    std::vector<double> hitMs;
    /** Request storm only: the p99 of each window that has the samples
     *  for it. Their first quartile is the run's hit p99: the
     *  tail in the run's calmer seconds, as host episodes (vCPU steal,
     *  1 to 4 ms tails in about half the runs) can cover most of a run
     *  and would otherwise set it. */
    std::vector<double> hitP99Windows;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void fail(const std::string &what);
    std::vector<std::string> failures; ///< first few diagnostics
};

struct Context
{
    Options opts;
    Pins pins;
    std::mt19937_64 rng;
    /** Extend the timed loop until every percentile has its ten samples
     *  beyond it (off for the two halves of a traced run). */
    bool enforceMinimums = true;
};

/** What the layer probes run on: the workload's own inputs. */
struct ProbeInputs
{
    std::vector<eip::trace::Workload> synthetic; ///< first one drives
                                                 ///< the single-source
                                                 ///< probes
    eip::harness::RunSpec sampledSpec;           ///< for sample.* shares
    eip::trace::Workload sampledWorkload;
    std::vector<eip::harness::RunJob> batch;     ///< for exec.*
    std::vector<eip::serve::RunRequest> serveRequests; ///< for serve.*
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything before the first timed operation. */
    virtual void setup(Context &ctx) = 0;

    /** The timed loop: run for @p seconds (and until the minimum sample
     *  counts are met), recording into @p out. */
    virtual void run(Context &ctx, double seconds, Samples &out) = 0;

    /** Untimed checks after the loop (served-vs-in-process diffs). */
    virtual void finish(Context &, Samples &) {}

    /** Pin mode: simulate every cell the workload can run. */
    virtual void pinAll(Context &ctx) = 0;

    virtual ProbeInputs probeInputs(Context &ctx) = 0;
};

/** The named workload, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Per-layer metrics: name -> value (units come from BENCHMARK.json). */
using LayerMetrics = std::map<std::string, double>;

/** Run every layer probe on @p in, adding to @p out. */
void runLayerProbes(Context &ctx, const ProbeInputs &in, LayerMetrics &out);

/** Wall milliseconds the workload catalogue took to build. */
double catalogueMs();

/** The ChampSim fixture as a workload (fatal when unreadable). */
eip::trace::Workload fixtureWorkload(const Context &ctx);

/** Milliseconds of one chunk of the host calibration kernel (a fixed
 *  miniature cache simulation). One caller at a time: the kernel's
 *  tables are shared. */
double calibrationChunkMs();

/** Nominal time of one calibration chunk: its fast-mode time on the
 *  4-vCPU Xeon host the benchmark was written on. Reported times are
 *  scaled to a host where a chunk takes this long. */
constexpr double kNominalCalibrationMs = 2.0;

/** Seconds between two steady-clock nanosecond stamps. */
inline double
secondsBetween(uint64_t startNs, uint64_t endNs)
{
    return static_cast<double>(endNs - startNs) / 1e9;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
