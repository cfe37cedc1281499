#include "harness/canonical.hh"

#include "exec/canonical.hh"
#include "obs/json.hh"
#include "util/hash.hh"

namespace eip::harness {

namespace {

/** One cache level, declaration order (struct CacheConfig). */
void
writeCacheConfig(obs::JsonWriter &json, const sim::CacheConfig &c)
{
    json.beginObject();
    json.kv("name", c.name);
    json.kv("size_bytes", c.sizeBytes);
    json.kv("ways", c.ways);
    json.kv("hit_latency", c.hitLatency);
    json.kv("mshr_entries", c.mshrEntries);
    json.kv("pq_entries", c.pqEntries);
    json.kv("pq_issue_per_cycle", c.pqIssuePerCycle);
    json.kv("pf_mshr_reserve", c.pfMshrReserve);
    json.kv("ideal_hit", c.idealHit);
    json.kv("replacement", static_cast<unsigned>(c.replacement));
    json.endObject();
}

} // namespace

// Both serializers must stay in declaration-order sync with their
// structs; the golden-hash tests in tests/test_serialize.cc flag any
// drift so cache keys change consciously, never silently.

std::string
canonicalSimConfig(const sim::SimConfig &c)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("fetch_width", c.fetchWidth);
    json.kv("predict_width", c.predictWidth);
    json.kv("retire_width", c.retireWidth);
    json.kv("rob_entries", c.robEntries);
    json.kv("ftq_entries", c.ftqEntries);
    json.kv("backend_depth", c.backendDepth);
    json.kv("decode_resteer_penalty", c.decodeResteerPenalty);
    json.kv("execute_flush_penalty", c.executeFlushPenalty);
    json.kv("predictor", static_cast<unsigned>(c.predictor));
    json.kv("gshare_bits", c.gshareBits);
    json.kv("perceptron_rows", c.perceptronRows);
    json.kv("perceptron_history", c.perceptronHistory);
    json.kv("btb_entries", c.btbEntries);
    json.kv("btb_ways", c.btbWays);
    json.kv("ras_entries", c.rasEntries);
    json.kv("itc_entries", c.itcEntries);
    json.key("l1i");
    writeCacheConfig(json, c.l1i);
    json.key("l1d");
    writeCacheConfig(json, c.l1d);
    json.key("l2");
    writeCacheConfig(json, c.l2);
    json.key("llc");
    writeCacheConfig(json, c.llc);
    json.kv("dram_latency", c.dramLatency);
    json.kv("dram_jitter", c.dramJitter);
    json.kv("model_wrong_path", c.modelWrongPath);
    json.kv("wrong_path_lines_per_cycle", c.wrongPathLinesPerCycle);
    json.kv("physical_l1i", c.physicalL1I);
    json.kv("vmem_seed", c.vmemSeed);
    json.endObject();
    return json.str();
}

std::string
canonicalRunSpec(const RunSpec &spec)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("config_id", spec.configId);
    json.kv("instructions", spec.instructions);
    json.kv("warmup", spec.warmup);
    json.kv("physical_l1i", spec.physicalL1i);
    json.kv("data_prefetcher", spec.dataPrefetcher);
    json.kv("wrong_path", spec.wrongPath);
    json.kv("sample_interval", spec.sampleInterval);
    json.kv("collect_counters", spec.collectCounters);
    json.kv("sample_mode", spec.sampleMode);
    json.kv("sample_window", spec.sampleWindow);
    json.kv("sample_period", spec.samplePeriod);
    json.kv("sample_seed", spec.sampleSeed);
    json.kv("sample_warm", spec.sampleWarm);
    json.endObject();
    return json.str();
}

std::string
canonicalWorkload(const trace::Workload &workload)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("name", workload.name);
    json.kv("category", workload.category);
    // Trace-backed workloads extend the form with their kind and content
    // identity. The extra keys sit between "category" and "program", so
    // no trace-backed serialization can ever equal a synthetic one —
    // and the synthetic form stays byte-identical to before trace
    // support existed (pinned by the golden-digest tests). The path is
    // deliberately absent: identity is the bytes, not where they live.
    if (workload.kind != trace::WorkloadKind::Synthetic) {
        json.kv("kind", trace::workloadKindName(workload.kind));
        json.kv("trace_bytes", workload.traceBytes);
        json.kv("trace_digest", workload.traceDigest);
    }
    json.key("program").raw(exec::canonicalProgramConfig(workload.program));
    json.key("exec").raw(exec::canonicalExecutorConfig(workload.exec));
    json.endObject();
    return json.str();
}

std::string
resultCacheKey(const std::string &git_describe, const sim::SimConfig &cfg,
               const RunSpec &spec, const trace::Workload &workload)
{
    // Chain the parts with a separator FNV can see: without it,
    // ("ab","c") and ("a","bc") would collide.
    uint64_t hash = util::fnv1a64(git_describe);
    hash = util::fnv1a64("\x1f", hash);
    hash = util::fnv1a64(canonicalSimConfig(cfg), hash);
    hash = util::fnv1a64("\x1f", hash);
    hash = util::fnv1a64(canonicalRunSpec(spec), hash);
    hash = util::fnv1a64("\x1f", hash);
    hash = util::fnv1a64(canonicalWorkload(workload), hash);
    return util::hex64(hash);
}

} // namespace eip::harness
