/**
 * @file
 * The four benchmark workloads. Each is a seeded pool of cells whose
 * simulated results are pinned; the seed picks the order and the cell
 * variants a run uses, never anything outside the pinned pool.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "arith.hh"
#include "bench.hh"
#include "check/diff.hh"
#include "exec/program_cache.hh"
#include "exec/run_batch.hh"
#include "harness/artifacts.hh"
#include "obs/json.hh"
#include "prefetch/factory.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "spans.hh"
#include "util/hash.hh"

using namespace eip;

namespace perfbench {

// ---------------------------------------------------------------- pins

bool
Pins::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read pinned digests " + path;
        return false;
    }
    std::string cell, digest;
    while (in >> cell >> digest)
        digests_[cell] = digest;
    return true;
}

bool
Pins::save(const std::string &path) const
{
    std::ofstream out(path);
    for (const auto &[cell, digest] : digests_)
        out << cell << ' ' << digest << '\n';
    return static_cast<bool>(out);
}

bool
Pins::check(const std::string &cell, const std::string &digest)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (pinning) {
        auto [it, fresh] = pinnedNow_.emplace(cell, digest);
        conflicts += !fresh && it->second != digest;
        digests_[cell] = digest;
        return true;
    }
    auto it = digests_.find(cell);
    return it != digests_.end() && it->second == digest;
}

std::string
statsDigest(const sim::SimStats &s)
{
    std::ostringstream text;
    text << s.instructions << ' ' << s.cycles << ' ' << s.branches << ' '
         << s.branchMispredicts << ' ' << s.btbMisses << ' '
         << s.fetchStallLineMiss << ' ' << s.fetchStallFtqEmptyMispredict
         << ' ' << s.fetchStallFtqEmptyStarved << ' ' << s.fetchStallRobFull
         << ' ' << s.fetchIdleCycles << ' ' << s.dramAccesses;
    for (const sim::CacheStats *c : {&s.l1i, &s.l1d, &s.l2, &s.llc}) {
        text << " |" << c->demandAccesses << ' ' << c->demandHits << ' '
             << c->demandMisses << ' ' << c->mshrMerges << ' '
             << c->prefetchRequested << ' ' << c->prefetchIssued << ' '
             << c->usefulPrefetches << ' ' << c->latePrefetches << ' '
             << c->wrongPrefetches << ' ' << c->fills << ' '
             << c->evictions << ' ' << c->missLatencySum;
    }
    return util::hex64(util::fnv1a64(text.str()));
}

std::string
artifactCountersDigest(const std::string &artifact)
{
    std::optional<obs::JsonValue> doc;
    {
        ScopedSpan span("obs.parse_json");
        doc = obs::parseJson(artifact);
    }
    const obs::JsonValue *counters = doc ? doc->find("counters") : nullptr;
    if (counters == nullptr)
        return {};
    std::string text;
    for (const auto &[name, value] : counters->object)
        text += name + '=' + std::to_string(value.asU64()) + ';';
    return util::hex64(util::fnv1a64(text));
}

void
Samples::window(double windowSeconds, double windowInstructions,
                double windowCompleted)
{
    windowMips.push_back(windowInstructions / windowSeconds / 1e6);
    windowRps.push_back(windowCompleted / windowSeconds);
    seconds += windowSeconds;
    instructions += windowInstructions;
    completed += windowCompleted;
}

void
Samples::calibrate()
{
    calibrationMs.push_back(calibrationChunkMs());
}

void
Samples::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 5)
        failures.push_back(what);
}

// ---------------------------------------------------------- helpers

namespace {

double gCatalogueMs = 0.0;

/** The catalogue every workload resolves names against; its one build
 *  (cvpSuite qualification) is timed for trace.catalogue_ms. */
const std::vector<trace::Workload> &
catalogue()
{
    static const std::vector<trace::Workload> all = [] {
        const uint64_t t0 = nowNs();
        std::vector<trace::Workload> built = harness::defaultCatalogue();
        gCatalogueMs = static_cast<double>(nowNs() - t0) / 1e6;
        return built;
    }();
    return all;
}

trace::Workload
named(const std::string &name)
{
    trace::Workload w;
    if (!harness::findWorkload(name, w)) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n", name.c_str());
        std::exit(2);
    }
    return w;
}

/** The 12-workload CVP suite the figure benches use (cvpSuite(3)): the
 *  catalogue holds it first, before the cloud workloads and tiny. */
std::vector<trace::Workload>
cvpSuite()
{
    const std::vector<trace::Workload> &all = catalogue();
    return {all.begin(), all.begin() + 12};
}

double
msSince(uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e6;
}

/**
 * Draws 0..n-1 in seeded shuffled rounds, so over a run every value
 * comes up equally often whatever the seed.
 *
 * Timed units are drawn from decks of different sizes because the host
 * alternates, second by second, between a fast mode and one about 1.45x
 * slower. A unit shorter than that holds one mode, so the median of
 * equal units lands on one mode or the other depending on which held
 * more of the run, and flips from run to run. Units whose work spans a
 * wider range than the two modes' ratio form one continuous
 * distribution instead, and its percentiles move smoothly with the
 * share of slow time, as a mean does.
 */
class Deck
{
  public:
    explicit Deck(size_t n) : n_(n) {}

    size_t
    next(std::mt19937_64 &rng)
    {
        if (at_ == order_.size()) {
            order_.resize(n_);
            std::iota(order_.begin(), order_.end(), size_t{0});
            std::shuffle(order_.begin(), order_.end(), rng);
            at_ = 0;
        }
        return order_[at_++];
    }

  private:
    size_t n_;
    std::vector<size_t> order_;
    size_t at_ = 0;
};

uint64_t
simulated(const harness::RunResult &r, const harness::RunSpec &spec)
{
    return simulatedInstructions(
        r.hasSampling, spec.warmup, spec.instructions,
        r.sampling.warmedInstructions, r.sampling.skippedInstructions,
        r.sampling.windowInstructions);
}

struct Deadline
{
    uint64_t soft;
    uint64_t hard;

    Deadline(double seconds)
        : soft(nowNs() + static_cast<uint64_t>(seconds * 1e9)),
          hard(nowNs() + static_cast<uint64_t>(3.0 * seconds * 1e9))
    {}

    /** Keep going until the soft deadline and, when @p enforce, until
     *  the percentile rule has its samples (never past the hard cap). */
    bool
    more(const Samples &s, bool enforce, size_t hits, size_t cold) const
    {
        const uint64_t now = nowNs();
        if (now >= hard)
            return false;
        if (now < soft)
            return true;
        return enforce && (s.hitMs.size() < hits || s.coldMs.size() < cold);
    }
};

// ------------------------------------------------------ cell workloads

/** One pinned simulation: a workload under a spec. */
struct Cell
{
    std::string id;
    trace::Workload workload;
    harness::RunSpec spec;
};

/** One attempted operation: a mismatch with the pinned digest fails it. */
void
checkCell(Context &ctx, const Cell &cell, const harness::RunResult &r,
          Samples &out)
{
    ScopedSpan span("bench.check");
    ++out.attempted;
    if (!ctx.pins.check(cell.id, statsDigest(r.stats)))
        out.fail(cell.id +
                 ": simulated statistics differ from the pinned digest");
}

/**
 * The simulation workloads' cache-served unit (hit_* metrics): a short
 * cell of a synthetic source whose program is resident in the program
 * cache, so it pays the lookup, the Cpu and prefetcher construction and
 * a little simulation, never a program build. 32 cells, budgets 4k to
 * 41.2k instructions in even steps, round-robin over the sources: a
 * p99 lands among the few costliest cells, and with fewer, coarser
 * levels it flipped between their fast-mode and slow-mode times (see
 * Deck).
 */
class HitCells
{
  public:
    void
    build(const std::string &prefix,
          const std::vector<trace::Workload> &sources)
    {
        constexpr size_t kLevels = 32;
        for (size_t level = 0; level < kLevels; ++level) {
            const trace::Workload &w = sources[level % sources.size()];
            harness::RunSpec spec;
            spec.configId = "entangling-4k";
            spec.instructions = 4000 + 1200 * level;
            spec.warmup = 1000;
            cells_.push_back({prefix + "|hit|" + w.name + "|" +
                                  std::to_string(spec.instructions),
                              w, spec});
        }
        deck_ = Deck(cells_.size());
    }

    /** Time @p n cells drawn from the deck, checking each digest. */
    void
    time(Context &ctx, int n, Samples &out)
    {
        for (int i = 0; i < n; ++i) {
            const Cell &cell = cells_[deck_.next(ctx.rng)];
            const uint64_t t0 = nowNs();
            harness::RunResult r;
            {
                ScopedSpan span("harness.run_one");
                r = harness::runOne(cell.workload, cell.spec);
            }
            out.hitMs.push_back(msSince(t0));
            checkCell(ctx, cell, r, out);
        }
    }

    void
    pinAll(Context &ctx) const
    {
        for (const Cell &cell : cells_)
            ctx.pins.check(cell.id,
                           statsDigest(
                               harness::runOne(cell.workload, cell.spec).stats));
    }

  private:
    std::vector<Cell> cells_;
    Deck deck_{0};
};

/**
 * Shared loop of detailed-srv and sampled-trace: every pass runs each
 * source at one budget level (level and order drawn from the seed), one
 * harness::runOne per cell, single-threaded. The pass is the timed
 * unit: the sources differ in cost, so per-cell latencies are bimodal
 * and their median would flip between the modes from run to run. The
 * levels span a 3.6x (detailed) or 4.5x (sampled) budget range so the
 * pass latencies form one continuous distribution (see Deck).
 */
class CellWorkload : public Workload
{
  public:
    void
    run(Context &ctx, double seconds, Samples &out) override
    {
        Deadline deadline(seconds);
        while (deadline.more(out, ctx.enforceMinimums, 1000, 100)) {
            const size_t level = levels_.next(ctx.rng);
            std::vector<const Cell *> pass;
            for (const std::vector<Cell> &variants : sources_)
                pass.push_back(&variants[level]);
            std::shuffle(pass.begin(), pass.end(), ctx.rng);

            const uint64_t passStart = nowNs();
            uint64_t instructions = 0;
            std::vector<harness::RunResult> results;
            for (const Cell *cell : pass) {
                ScopedSpan span("harness.run_one");
                results.push_back(harness::runOne(cell->workload, cell->spec));
            }
            const double wall = secondsBetween(passStart, nowNs());
            out.coldMs.push_back(wall * 1e3);
            for (size_t i = 0; i < pass.size(); ++i) {
                instructions += simulated(results[i], pass[i]->spec);
                checkCell(ctx, *pass[i], results[i], out);
            }
            out.window(wall, static_cast<double>(instructions),
                       static_cast<double>(pass.size()));
            hits_.time(ctx, kHitsPerPass, out);
            out.calibrate();
        }
    }

    void
    pinAll(Context &ctx) override
    {
        for (const std::vector<Cell> &variants : sources_)
            for (const Cell &cell : variants)
                ctx.pins.check(cell.id,
                               statsDigest(harness::runOne(cell.workload,
                                                           cell.spec)
                                               .stats));
        hits_.pinAll(ctx);
    }

  protected:
    static constexpr int kHitsPerPass = 10;
    /** Budget levels per source: sources_[source][level]. */
    static constexpr size_t kLevels = 8;

    /** Pre-build every synthetic program so no build lands in the
     *  timed region; the synthetic sources also make the hit cells. */
    void
    buildPrograms(const std::string &prefix)
    {
        std::vector<trace::Workload> synthetic;
        for (const std::vector<Cell> &variants : sources_) {
            const trace::Workload &w = variants.front().workload;
            if (w.kind != trace::WorkloadKind::Synthetic)
                continue;
            exec::ProgramCache::global().get(w.program);
            synthetic.push_back(w);
        }
        hits_.build(prefix, synthetic);
    }

    std::vector<harness::RunJob>
    allJobs() const
    {
        std::vector<harness::RunJob> jobs;
        for (const std::vector<Cell> &variants : sources_)
            for (const Cell &cell : variants)
                jobs.push_back({cell.workload, cell.spec});
        return jobs;
    }

    /** Submit requests for the serve probe: the sources at a small
     *  budget. */
    std::vector<serve::RunRequest>
    serveRequests(const std::string &prefetcher) const
    {
        std::vector<serve::RunRequest> requests;
        for (const std::vector<Cell> &variants : sources_) {
            const trace::Workload &w = variants.front().workload;
            if (w.kind != trace::WorkloadKind::Synthetic)
                continue;
            serve::RunRequest run;
            run.workload = w.name;
            run.prefetcher = prefetcher;
            run.instructions = 20000;
            run.warmup = 10000;
            requests.push_back(run);
        }
        return requests;
    }

    std::vector<std::vector<Cell>> sources_;
    HitCells hits_;
    Deck levels_{kLevels};
};

/** Full detailed simulation of the two server footprints under
 *  Entangling-4K: the simulator's hot path. */
class DetailedSrv : public CellWorkload
{
  public:
    void
    setup(Context &) override
    {
        catalogue();
        for (const char *name : {"srv-1", "cassandra"}) {
            const trace::Workload w = named(name);
            std::vector<Cell> variants;
            for (uint64_t level = 0; level < kLevels; ++level) {
                harness::RunSpec spec;
                spec.configId = "entangling-4k";
                spec.instructions = 100000 + 75000 * level;
                spec.warmup = 100000;
                variants.push_back({"detailed-srv|" + w.name + "|" +
                                        std::to_string(spec.instructions),
                                    w, spec});
            }
            sources_.push_back(std::move(variants));
        }
        buildPrograms("detailed-srv");
    }

    ProbeInputs
    probeInputs(Context &) override
    {
        ProbeInputs in;
        for (const std::vector<Cell> &variants : sources_)
            in.synthetic.push_back(variants.front().workload);
        in.sampledWorkload = in.synthetic.front();
        in.sampledSpec = sampledSpec(2000000);
        in.batch = allJobs();
        in.serveRequests = serveRequests("entangling-4k");
        return in;
    }

    static harness::RunSpec
    sampledSpec(uint64_t instructions)
    {
        harness::RunSpec spec;
        spec.configId = "entangling-4k";
        spec.sampleMode = "periodic";
        spec.instructions = instructions;
        spec.warmup = instructions / 100;
        spec.samplePeriod = instructions / 8;
        spec.sampleWindow = spec.samplePeriod / 80;
        spec.sampleWarm = 4 * spec.sampleWindow;
        spec.sampleSeed = 1;
        return spec;
    }
};

/** SMARTS periodic sampling at a long budget on an O(1)-skip ChampSim
 *  replay and a synthetic source whose skip executes. */
class SampledTrace : public CellWorkload
{
  public:
    void
    setup(Context &ctx) override
    {
        catalogue();
        for (const trace::Workload &w :
             {fixtureWorkload(ctx), named("int-1")}) {
            std::vector<Cell> variants;
            for (uint64_t level = 0; level < kLevels; ++level) {
                harness::RunSpec spec =
                    DetailedSrv::sampledSpec(2000000 + 1000000 * level);
                spec.sampleSeed = level + 1;
                variants.push_back({"sampled-trace|" + w.name + "|" +
                                        std::to_string(spec.instructions),
                                    w, spec});
            }
            sources_.push_back(std::move(variants));
        }
        buildPrograms("sampled-trace");
    }

    ProbeInputs
    probeInputs(Context &) override
    {
        ProbeInputs in;
        in.synthetic.push_back(sources_[1].front().workload);
        in.sampledWorkload = sources_[0].front().workload;
        in.sampledSpec = sources_[0].front().spec;
        in.batch = allJobs();
        in.serveRequests = serveRequests("entangling-4k");
        return in;
    }
};

// ------------------------------------------------------ figure-matrix

/** The Fig. 6 and Fig. 7 benches' call pattern: one runSuite per config
 *  over the CVP suite at two jobs, duplicate cells included, each pass
 *  starting from an empty program cache like a fresh bench process. */
class FigureMatrix : public Workload
{
  public:
    void
    setup(Context &) override
    {
        suite_ = cvpSuite();
        std::vector<std::string> fig6 = prefetch::figure6Lineup();
        for (const char *id : {"l1i-64kb", "l1i-96kb", "ideal"})
            fig6.emplace_back(id);
        std::vector<std::string> fig7 = prefetch::mainLineup();
        fig7.emplace_back("ideal");
        figures_ = {fig6, fig7};
        hits_.build("figure-matrix", suite_);
    }

    void
    run(Context &ctx, double seconds, Samples &out) override
    {
        Deadline deadline(seconds);
        while (deadline.more(out, ctx.enforceMinimums, 1000, 100)) {
            exec::ProgramCache::global().clear();
            std::vector<std::vector<std::string>> order = figures_;
            std::shuffle(order.begin(), order.end(), ctx.rng);
            std::map<std::string, std::string> seen;

            // The pass's rates count the runSuite calls only, not the
            // hit cells and calibration between them.
            uint64_t suiteNs = 0;
            uint64_t instructions = 0;
            uint64_t cells = 0;
            int calls = 0;
            for (std::vector<std::string> &configs : order) {
                std::shuffle(configs.begin(), configs.end(), ctx.rng);
                for (const std::string &id : withBaseline(configs)) {
                    harness::RunSpec spec = cellSpec(id);
                    const uint64_t t0 = nowNs();
                    std::vector<harness::RunResult> results =
                        runSuite(spec);
                    suiteNs += nowNs() - t0;
                    out.coldMs.push_back(msSince(t0));
                    cells += results.size();
                    instructions += results.size() *
                                    (spec.warmup + spec.instructions);
                    check(ctx, id, results, seen, out);
                    out.calibrate();
                    ++calls;
                }
            }
            out.window(static_cast<double>(suiteNs) / 1e9,
                       static_cast<double>(instructions),
                       static_cast<double>(cells));
            // The hit cells run as one block after the pass: a hit
            // straight after a two-job runSuite call reads the host's
            // slow phases several times over in its tail.
            hits_.time(ctx, kHitsPerCall * calls, out);
            out.calibrate();
        }
    }

    void
    pinAll(Context &ctx) override
    {
        Samples ignore;
        std::map<std::string, std::string> seen;
        for (const std::vector<std::string> &configs : figures_)
            for (const std::string &id : withBaseline(configs))
                check(ctx, id, runSuite(cellSpec(id)), seen, ignore);
        hits_.pinAll(ctx);
    }

    ProbeInputs
    probeInputs(Context &) override
    {
        ProbeInputs in;
        // One seed per category drives the per-source probes.
        for (const trace::Workload &w : suite_)
            if (w.name.size() > 2 && w.name.compare(w.name.size() - 2, 2,
                                                    "-1") == 0)
                in.synthetic.push_back(w);
        in.sampledWorkload = in.synthetic.front();
        in.sampledSpec = DetailedSrv::sampledSpec(2000000);
        for (const std::vector<std::string> &configs : figures_)
            for (const std::string &id : withBaseline(configs))
                for (const trace::Workload &w : suite_)
                    in.batch.push_back({w, cellSpec(id)});
        for (const trace::Workload &w : in.synthetic) {
            serve::RunRequest run;
            run.workload = w.name;
            run.prefetcher = "entangling-4k";
            run.instructions = kInstructions;
            run.warmup = kWarmup;
            in.serveRequests.push_back(run);
        }
        return in;
    }

  private:
    static constexpr uint64_t kInstructions = 40000;
    static constexpr uint64_t kWarmup = 20000;
    static constexpr unsigned kJobs = 2;
    /** Hit cells per runSuite call of a pass. */
    static constexpr int kHitsPerCall = 8;

    /** Each bench runs its no-prefetch baseline first, then its
     *  lineup. */
    static std::vector<std::string>
    withBaseline(std::vector<std::string> configs)
    {
        configs.insert(configs.begin(), "none");
        return configs;
    }

    static harness::RunSpec
    cellSpec(const std::string &id)
    {
        harness::RunSpec spec;
        spec.configId = id;
        spec.instructions = kInstructions;
        spec.warmup = kWarmup;
        return spec;
    }

    /** harness::runSuite at two jobs; traced runs issue the same batch
     *  through exec::runBatch so every cell gets its own span. */
    std::vector<harness::RunResult>
    runSuite(const harness::RunSpec &spec)
    {
        if (recorder() == nullptr)
            return harness::runSuite(suite_, spec, kJobs);
        ScopedSpan suiteSpan("harness.run_suite");
        const int64_t parent = suiteSpan.id();
        std::vector<harness::RunJob> batch;
        for (const trace::Workload &w : suite_)
            batch.push_back({w, spec});
        exec::ProgramCache &cache = exec::ProgramCache::global();
        return exec::runBatch(
            batch, kJobs, [&cache, parent](const harness::RunJob &job) {
                ScopedSpan cell("exec.cell", parent);
                std::shared_ptr<const trace::Program> program;
                {
                    ScopedSpan span("exec.program_cache");
                    program = cache.get(job.workload.program);
                }
                ScopedSpan span("harness.run_one");
                return harness::runOne(job.workload, job.spec, *program);
            });
    }

    void
    check(Context &ctx, const std::string &id,
          const std::vector<harness::RunResult> &results,
          std::map<std::string, std::string> &seen, Samples &out)
    {
        ScopedSpan span("bench.check");
        for (const harness::RunResult &r : results) {
            ++out.attempted;
            const std::string cell = "figure-matrix|" + r.workload + "|" + id;
            const std::string digest = statsDigest(r.stats);
            auto [it, fresh] = seen.emplace(cell, digest);
            if (!fresh && it->second != digest)
                out.fail(cell + ": duplicate cells differ");
            else if (!ctx.pins.check(cell, digest))
                out.fail(cell + ": simulated statistics differ from the "
                                "pinned digest");
        }
    }

    std::vector<trace::Workload> suite_;
    std::vector<std::vector<std::string>> figures_;
    HitCells hits_;
};

// -------------------------------------------------------- serve-storm

/** In-process eipd with two workers under a closed loop of one client
 *  connection: seeded hot resubmits (result-cache hits) mixed with cold
 *  keys that fork and simulate. */
class ServeStorm : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        catalogue();
        hot_ = hotRequests();
        serve::DaemonOptions options;
        options.socketPath =
            ctx.opts.outDir + "/storm-" + std::to_string(getpid()) + ".sock";
        options.workers = 2;
        options.queueDepth = 32;
        daemon_ = std::make_unique<serve::Daemon>(options);
        std::string error;
        if (!daemon_->start(&error))
            die("daemon start", error);
        socket_ = options.socketPath;

        // Pre-warm: every hot key simulated once, so the storm's hot
        // resubmits are served by the result cache.
        serve::Client client;
        if (!client.connect(socket_, &error))
            die("connect", error);
        std::vector<uint64_t> jobs;
        for (const serve::RunRequest &run : hot_) {
            serve::SubmitOutcome submit;
            if (!client.submit(run, submit, &error) || !submit.accepted)
                die("pre-warm submit", error + submit.error);
            jobs.push_back(submit.job);
        }
        for (size_t i = 0; i < jobs.size(); ++i) {
            serve::JobView view;
            if (!client.waitTerminal(jobs[i], view, 120.0, &error) ||
                !client.fetch(jobs[i], view, &error) || view.state != "done")
                die("pre-warm " + hot_[i].workload, error + view.error);
            if (!ctx.pins.check(hotId(hot_[i]),
                                artifactCountersDigest(view.artifact)))
                prewarmMismatches_.push_back(hotId(hot_[i]));
            reference_.push_back(view.artifact);
        }
        client.close();
    }

    void
    run(Context &ctx, double seconds, Samples &out) override
    {
        for (const std::string &cell : prewarmMismatches_) {
            ++out.attempted;
            out.fail(cell + ": pre-warmed artifact differs from the pinned "
                            "digest");
        }
        prewarmMismatches_.clear();

        Deadline deadline(seconds);
        const uint64_t start = nowNs();
        const int64_t root = currentSpan();
        std::vector<ClientLog> logs(kClients);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kClients; ++t)
            threads.emplace_back([&, t] {
                client(ctx, t, root, deadline, logs[t]);
            });
        for (std::thread &thread : threads)
            thread.join();
        const uint64_t end = nowNs();

        // One-second windows over the storm (each holds a few thousand
        // hits, so a window's hit p99 has its ten samples beyond it); a
        // partial tail is dropped.
        constexpr double kWindowSeconds = 1.0;
        const size_t windows = std::max<size_t>(
            1, static_cast<size_t>(secondsBetween(start, end) /
                                   kWindowSeconds));
        std::vector<double> completed(windows), instructions(windows);
        std::vector<std::vector<double>> hits(windows);
        for (ClientLog &log : logs) {
            for (const Request &r : log.requests) {
                (r.cold ? out.coldMs : out.hitMs).push_back(r.latencyMs);
                const size_t w = static_cast<size_t>(
                    secondsBetween(start, r.endNs) / kWindowSeconds);
                if (w < windows) {
                    completed[w] += 1.0;
                    instructions[w] += static_cast<double>(r.simulated);
                    if (!r.cold)
                        hits[w].push_back(r.latencyMs);
                }
            }
            out.attempted += log.attempted;
            out.failed += log.failed.failed;
            for (const std::string &f : log.failed.failures)
                if (out.failures.size() < 5)
                    out.failures.push_back(f);
            for (auto &kept : log.kept)
                kept_.push_back(std::move(kept));
        }
        for (size_t w = 0; w < windows; ++w) {
            out.window(kWindowSeconds, instructions[w], completed[w]);
            if (percentileReportable(hits[w].size(), 99))
                out.hitP99Windows.push_back(percentile(hits[w], 99));
        }
    }

    /** Served bytes against in-process harness::runJobArtifact bytes on
     *  the sampled subset, empty allow-list. */
    void
    finish(Context &, Samples &out) override
    {
        check::DiffRunner diff;
        const std::vector<std::string> none;
        for (const Kept &kept : kept_) {
            ++out.attempted;
            trace::Workload workload = named(kept.run.workload);
            const std::string reference =
                harness::runJobArtifact({workload, serve::toRunSpec(kept.run)})
                    .json;
            if (!diff.compare(kept.label, kept.artifact, reference, none))
                out.fail(kept.label + ": served artifact differs from the "
                                      "in-process artifact");
        }
        if (!diff.allClean())
            std::fprintf(stderr, "%s", diff.report().c_str());
        kept_.clear();
    }

    void
    pinAll(Context &ctx) override
    {
        for (const serve::RunRequest &run : hotRequests())
            ctx.pins.check(hotId(run), inProcessDigest(run));
        ctx.pins.check(kColdId, inProcessDigest(coldRequest(0)));
    }

    ProbeInputs
    probeInputs(Context &) override
    {
        ProbeInputs in;
        in.synthetic.push_back(named("tiny"));
        in.sampledWorkload = in.synthetic.front();
        in.sampledSpec = DetailedSrv::sampledSpec(2000000);
        for (const serve::RunRequest &run : hot_)
            in.batch.push_back(
                {named(run.workload), serve::toRunSpec(run)});
        for (size_t i = 0; i < hot_.size(); i += 4)
            in.serveRequests.push_back(hot_[i]);
        return in;
    }

  private:
    /** One connection: with two, hits also queued behind each other at
     *  the daemon's connection thread, which set the hit p99 (0.42 ms
     *  against 0.30 ms with one, in calm runs). */
    static constexpr unsigned kClients = 1;
    /** One request in this many is a cold key, dealt from a deck so the
     *  share is exact. A cold request costs about 150 hits, so even at
     *  1% the client spends a third of its time on cold keys; more would
     *  leave too few hits per window for a steady p99. */
    static constexpr size_t kRequestsPerCold = 100;
    /** Long enough that the client's 2 ms status polling is a small
     *  step of the cold latency. */
    static constexpr uint64_t kColdInstructions = 100000;
    static constexpr uint64_t kColdWarmup = 20000;
    static constexpr const char *kColdId = "serve-storm|cold|tiny";

    struct Request
    {
        bool cold = false;
        double latencyMs = 0.0;
        uint64_t endNs = 0;
        uint64_t simulated = 0;
    };

    struct Kept
    {
        std::string label;
        serve::RunRequest run;
        std::string artifact;
    };

    struct ClientLog
    {
        std::vector<Request> requests;
        uint64_t attempted = 0;
        Samples failed;
        std::vector<Kept> kept;
    };

    [[noreturn]] static void
    die(const std::string &what, const std::string &error)
    {
        std::fprintf(stderr, "perfbench: serve-storm %s: %s\n", what.c_str(),
                     error.c_str());
        std::exit(1);
    }

    /** 24 hot keys of one prefetcher, so their artifacts (and hit
     *  latencies) are alike in size. */
    static std::vector<serve::RunRequest>
    hotRequests()
    {
        std::vector<serve::RunRequest> hot;
        for (const trace::Workload &w : cvpSuite()) {
            for (uint64_t instructions : {30000, 35000}) {
                serve::RunRequest run;
                run.workload = w.name;
                run.prefetcher = "entangling-4k";
                run.instructions = instructions;
                run.warmup = 10000;
                hot.push_back(run);
            }
        }
        return hot;
    }

    /** Cold key @p k: the sampling interval only changes the artifact's
     *  time series, so every cold key is distinct in the result cache
     *  while its simulated counters stay one pinned digest. */
    static serve::RunRequest
    coldRequest(uint64_t k)
    {
        serve::RunRequest run;
        run.workload = "tiny";
        run.prefetcher = "entangling-4k";
        run.instructions = kColdInstructions;
        run.warmup = kColdWarmup;
        run.sampleInterval = 4000 + k;
        return run;
    }

    static std::string
    hotId(const serve::RunRequest &run)
    {
        return "serve-storm|hot|" + run.workload + "|" + run.prefetcher +
               "|" + std::to_string(run.instructions);
    }

    static std::string
    inProcessDigest(const serve::RunRequest &run)
    {
        return artifactCountersDigest(
            harness::runJobArtifact({named(run.workload),
                                     serve::toRunSpec(run)})
                .json);
    }

    void
    client(Context &ctx, unsigned t, int64_t root, const Deadline &deadline,
           ClientLog &log)
    {
        serve::Client client;
        std::string error;
        if (!client.connect(socket_, &error))
            die("connect", error);
        std::mt19937_64 rng(ctx.opts.seed * 1000003 + t + 1);
        Deck coldSlots(kRequestsPerCold);
        size_t keptHot = 0, keptCold = 0;
        while (moreRequests(ctx, deadline)) {
            const bool cold = coldSlots.next(rng) == 0;
            const size_t hotIndex = rng() % hot_.size();
            // Cold keys are numbered process-wide so no key repeats,
            // not even across the two halves of a traced run.
            const serve::RunRequest run =
                cold ? coldRequest(nextCold_.fetch_add(1)) : hot_[hotIndex];
            ++log.attempted;

            ScopedSpan requestSpan("serve.request", root);
            const uint64_t t0 = nowNs();
            std::string artifact;
            if (!roundTrip(client, run, cold, artifact, error)) {
                log.failed.fail(error);
                continue;
            }
            Request r;
            r.cold = cold;
            r.endNs = nowNs();
            r.latencyMs = static_cast<double>(r.endNs - t0) / 1e6;
            r.simulated = cold ? kColdInstructions + kColdWarmup : 0;
            log.requests.push_back(r);
            (cold ? coldDone_ : hitsDone_).fetch_add(1);

            ScopedSpan checkSpan("bench.check");
            if (ctx.opts.tamper && tampered_.exchange(true) == false)
                artifact[artifact.size() / 2] ^= 1;
            const bool ok =
                cold ? ctx.pins.check(kColdId, artifactCountersDigest(artifact))
                     : artifact == reference_[hotIndex];
            if (!ok)
                log.failed.fail((cold ? std::string(kColdId)
                                      : hotId(hot_[hotIndex])) +
                                ": served artifact differs from its pinned "
                                "result");
            // Keep a sample of both kinds for the in-process diff.
            size_t &kept = cold ? keptCold : keptHot;
            if (kept < 2 && rng() % 64 == 0) {
                ++kept;
                log.kept.push_back({(cold ? "cold " : "hot ") + run.workload +
                                        "/" + run.prefetcher,
                                    run, artifact});
            }
        }
        client.close();
    }

    bool
    moreRequests(const Context &ctx, const Deadline &deadline) const
    {
        const uint64_t now = nowNs();
        if (now >= deadline.hard)
            return false;
        if (now < deadline.soft)
            return true;
        return ctx.enforceMinimums &&
               (hitsDone_.load() < 1000 || coldDone_.load() < 100);
    }

    /** Submit (retrying explicit backpressure), wait for a terminal
     *  state when the key was not cached, fetch the artifact. */
    static bool
    roundTrip(serve::Client &client, const serve::RunRequest &run, bool cold,
              std::string &artifact, std::string &error)
    {
        serve::SubmitOutcome submit;
        {
            ScopedSpan span("serve.submit");
            for (;;) {
                if (!client.submit(run, submit, &error))
                    return false;
                if (!submit.rejected)
                    break;
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
        if (!submit.accepted) {
            error = "submit refused: " + submit.error;
            return false;
        }
        if ((submit.served == "cache") == cold) {
            error = std::string(cold ? "cold key served from cache"
                                     : "hot key missed the cache") +
                    " (" + run.workload + ")";
            return false;
        }
        serve::JobView view;
        if (cold) {
            ScopedSpan span("serve.wait");
            if (!client.waitTerminal(submit.job, view, 60.0, &error))
                return false;
        }
        {
            ScopedSpan span("serve.fetch");
            if (!client.fetch(submit.job, view, &error))
                return false;
        }
        if (view.state != "done") {
            error = "job " + view.state + ": " + view.error;
            return false;
        }
        artifact = std::move(view.artifact);
        return true;
    }

    std::unique_ptr<serve::Daemon> daemon_;
    std::string socket_;
    std::vector<serve::RunRequest> hot_;
    std::vector<std::string> reference_;
    std::vector<std::string> prewarmMismatches_;
    std::vector<Kept> kept_;
    std::atomic<uint64_t> hitsDone_{0};
    std::atomic<uint64_t> coldDone_{0};
    std::atomic<uint64_t> nextCold_{0};
    std::atomic<bool> tampered_{false};
};

} // namespace

double
catalogueMs()
{
    return gCatalogueMs;
}

trace::Workload
fixtureWorkload(const Context &ctx)
{
    return named(ctx.opts.fixturePath);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "detailed-srv")
        return std::make_unique<DetailedSrv>();
    if (name == "sampled-trace")
        return std::make_unique<SampledTrace>();
    if (name == "figure-matrix")
        return std::make_unique<FigureMatrix>();
    if (name == "serve-storm")
        return std::make_unique<ServeStorm>();
    return nullptr;
}

} // namespace perfbench
