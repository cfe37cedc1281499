#include "harness/artifacts.hh"

#include <cmath>
#include <cstdio>
#include <memory>

#include "exec/jobs.hh"
#include "exec/run_batch.hh"
#include "obs/json.hh"
#include "obs/phase.hh"
#include "util/env.hh"
#include "util/panic.hh"

namespace eip::harness {

namespace {

/** One sampled-metric estimate: point value, standard error, and the
 *  95% confidence-interval half-width (t-distributed over windows). */
void
writeMetricSummary(obs::JsonWriter &json, const char *name,
                   const sample::MetricSummary &m)
{
    json.key(name).beginObject();
    json.kv("estimate", m.estimate);
    json.kv("std_error", m.stdError);
    json.kv("ci95", m.ci95);
    json.endObject();
}

/** The eip-run/v1 object body (shared by single-run artifacts and the
 *  per-run members of a suite roll-up). */
void
writeRunObject(obs::JsonWriter &json, const obs::RunManifest &manifest,
               const RunResult &result, bool include_timing)
{
    json.beginObject();
    json.kv("schema", obs::kRunSchema);
    obs::writeManifest(json, manifest, include_timing);

    obs::writeCounterSections(json, result.counters);

    // Sampled-simulation estimates: present only for periodic-mode runs,
    // so full-run artifacts keep their exact historic bytes (same
    // contract as the --why section below).
    if (result.hasSampling) {
        const sample::Summary &s = result.sampling;
        json.key("sampling").beginObject();
        json.kv("windows", s.windows);
        json.kv("window_instructions", s.windowInstructions);
        json.kv("warmed_instructions", s.warmedInstructions);
        json.kv("skipped_instructions", s.skippedInstructions);
        json.kv("offset", s.offset);
        writeMetricSummary(json, "ipc", s.ipc);
        writeMetricSummary(json, "l1i_mpki", s.l1iMpki);
        writeMetricSummary(json, "l1i_coverage", s.l1iCoverage);
        writeMetricSummary(json, "l1i_accuracy", s.l1iAccuracy);
        json.endObject();
    }

    // Miss attribution (--why): present only when the run carried the
    // observer, so plain artifacts keep their exact historic bytes.
    if (result.why.enabled) {
        json.key("why");
        obs::writeWhySection(json, result.why);
    }

    const obs::SampleSeries &series = result.samples;
    json.key("samples").beginObject();
    json.kv("interval", series.interval);
    json.key("columns").beginArray();
    for (const std::string &name : series.names)
        json.value(name);
    json.endArray();
    json.key("rows").beginArray();
    for (size_t i = 0; i < series.rows.size(); ++i) {
        const obs::Sample &row = series.rows[i];
        json.beginObject();
        json.kv("instructions", row.instructions);
        json.kv("cycles", row.cycles);
        json.key("values").beginArray();
        for (uint64_t v : row.values)
            json.value(v);
        json.endArray();
        // Per-interval deltas against the previous snapshot (the first
        // row's delta is its cumulative value: warm boundary to sample).
        json.key("deltas").beginArray();
        for (size_t c = 0; c < row.values.size(); ++c) {
            uint64_t prev = i == 0 ? 0 : series.rows[i - 1].values[c];
            json.value(row.values[c] - prev);
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();

    json.endObject();
}

} // namespace

obs::RunManifest
makeManifest(const trace::Workload &workload, const RunSpec &spec,
             const RunResult &result)
{
    obs::RunManifest m;
    m.workload = workload.name;
    m.category = workload.category;
    m.configId = spec.configId;
    m.configName = result.configName;
    m.dataPrefetcher = spec.dataPrefetcher;
    m.storageBits =
        static_cast<uint64_t>(std::llround(result.storageKB * 1024.0 * 8.0));
    m.programSeed = workload.program.seed;
    m.execSeed = workload.exec.seed;
    m.instructions = spec.instructions;
    m.warmup = spec.warmup;
    m.sampleInterval = spec.sampleInterval;
    // Periodic-mode echo only: a full run's manifest stays byte-identical
    // to before sampled simulation existed.
    if (spec.sampleMode == "periodic") {
        m.sampleMode = spec.sampleMode;
        m.sampleWindow = spec.sampleWindow;
        m.samplePeriod = spec.samplePeriod;
        m.sampleSeed = spec.sampleSeed;
        m.sampleWarm = spec.sampleWarm;
    }
    m.simScale = util::envDouble("EIP_SIM_SCALE").value_or(1.0);
    if (workload.kind != trace::WorkloadKind::Synthetic) {
        m.traceKind = trace::workloadKindName(workload.kind);
        m.traceBytes = workload.traceBytes;
        m.traceDigest = workload.traceDigest;
    }
    return m;
}

std::string
runArtifactJson(const obs::RunManifest &manifest, const RunResult &result,
                bool include_timing)
{
    obs::JsonWriter json;
    writeRunObject(json, manifest, result, include_timing);
    return json.str() + "\n";
}

std::string
suiteArtifactJson(const std::vector<RunJob> &batch,
                  const std::vector<RunResult> &results)
{
    EIP_ASSERT(batch.size() == results.size(),
               "suite roll-up needs one result per job");
    obs::JsonWriter json;
    json.beginObject();
    json.kv("schema", obs::kSuiteSchema);
    json.kv("tool", "eipsim");
    json.kv("git_describe", obs::buildGitDescribe());
    json.kv("run_count", static_cast<uint64_t>(results.size()));
    json.key("runs").beginArray();
    for (size_t i = 0; i < results.size(); ++i) {
        obs::RunManifest m =
            makeManifest(batch[i].workload, batch[i].spec, results[i]);
        writeRunObject(json, m, results[i], /*include_timing=*/false);
    }
    json.endArray();
    json.endObject();
    return json.str() + "\n";
}

ArtifactRun
runJobArtifact(const RunJob &job, bool use_program_cache,
               obs::PhaseProfiler *profiler)
{
    RunJob collected = job;
    collected.spec.collectCounters = true;
    collected.spec.profiler = profiler;

    ArtifactRun out;
    if (use_program_cache ||
        collected.workload.kind != trace::WorkloadKind::Synthetic) {
        out.result = runOne(collected.workload, collected.spec);
    } else {
        std::unique_ptr<trace::Program> program;
        {
            obs::PhaseProfiler::Scope scope(profiler, "program_build");
            program = std::make_unique<trace::Program>(
                trace::buildProgram(collected.workload.program));
        }
        out.result = runOne(collected.workload, collected.spec, *program);
    }
    // runOne leaves the run's last phase (fill_drain) open; close it so
    // the serialization below is charged to its own phase, not the run.
    if (profiler != nullptr) {
        profiler->close();
        profiler->transition("serialize");
    }
    obs::RunManifest manifest =
        makeManifest(collected.workload, collected.spec, out.result);
    out.json = runArtifactJson(manifest, out.result,
                               /*include_timing=*/false);
    if (profiler != nullptr)
        profiler->close();
    return out;
}

std::string
perJobArtifactPath(const std::string &path, size_t index)
{
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, ".r%03zu.json", index);
    return path + suffix;
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        EIP_FATAL(("cannot open artifact file: " + path).c_str());
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = written == text.size() && std::fclose(f) == 0;
    if (!ok)
        EIP_FATAL(("cannot write artifact file: " + path).c_str());
}

std::vector<RunResult>
runBatchWithArtifacts(const std::vector<RunJob> &batch, unsigned jobs,
                      const std::string &path)
{
    // Counter collection must be on for the artifacts to have content.
    std::vector<RunJob> collected = batch;
    for (RunJob &job : collected)
        job.spec.collectCounters = true;

    std::vector<RunResult> results = exec::runBatchIndexed(
        collected, exec::resolveJobs(jobs),
        [&path](const RunJob &job, size_t index) {
            // The per-job file is written by whichever worker ran the
            // job, but its name and bytes depend only on the submission
            // index — concurrent writers never collide or race.
            ArtifactRun run = runJobArtifact(job);
            writeTextFile(perJobArtifactPath(path, index), run.json);
            return std::move(run.result);
        });

    writeTextFile(path, suiteArtifactJson(collected, results));
    return results;
}

} // namespace eip::harness
