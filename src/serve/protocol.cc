#include "serve/protocol.hh"

#include <type_traits>

#include "obs/json.hh"
#include "obs/manifest.hh"
#include "sample/schedule.hh"

namespace eip::serve {

namespace {

/** Read the optional member @p name into @p out, keeping the default
 *  when it is absent. False with a diagnostic on a mistyped value;
 *  integers must be non-negative and integral. */
template <typename T>
bool
readField(const obs::JsonValue &object, const std::string &name, T &out,
          std::string &error)
{
    const obs::JsonValue *member = object.find(name);
    if (!member)
        return true;
    if constexpr (std::is_same_v<T, uint64_t>) {
        if (member->isNumber() && member->number >= 0 &&
            member->number == static_cast<double>(member->asU64())) {
            out = member->asU64();
            return true;
        }
        error = "field '" + name + "' must be a non-negative integer";
    } else if constexpr (std::is_same_v<T, bool>) {
        if (member->type == obs::JsonValue::Type::Bool) {
            out = member->boolean;
            return true;
        }
        error = "field '" + name + "' must be a boolean";
    } else {
        if (member->type == obs::JsonValue::Type::String) {
            out = member->string;
            return true;
        }
        error = "field '" + name + "' must be a string";
    }
    return false;
}

} // namespace

const char *
opName(Request::Op op)
{
    switch (op) {
      case Request::Op::Submit: return "submit";
      case Request::Op::Status: return "status";
      case Request::Op::Fetch: return "fetch";
      case Request::Op::Stats: return "stats";
      case Request::Op::Metrics: return "metrics";
      case Request::Op::Spans: return "spans";
      case Request::Op::Shutdown: return "shutdown";
    }
    return "unknown";
}

bool
opFromName(const std::string &name, Request::Op &out)
{
    for (Request::Op op :
         {Request::Op::Submit, Request::Op::Status, Request::Op::Fetch,
          Request::Op::Stats, Request::Op::Metrics, Request::Op::Spans,
          Request::Op::Shutdown}) {
        if (name == opName(op)) {
            out = op;
            return true;
        }
    }
    return false;
}

std::string
requestJson(const Request &request)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("schema", obs::kServeSchema);
    json.kv("kind", "request");
    json.kv("op", opName(request.op));
    switch (request.op) {
      case Request::Op::Status:
      case Request::Op::Fetch:
        json.kv("job", request.job);
        break;
      case Request::Op::Submit:
        json.key("run").beginObject();
        json.kv("workload", request.run.workload);
        json.kv("prefetcher", request.run.prefetcher);
        json.kv("data_prefetcher", request.run.dataPrefetcher);
        json.kv("instructions", request.run.instructions);
        json.kv("warmup", request.run.warmup);
        json.kv("physical_l1i", request.run.physical);
        json.kv("sample_interval", request.run.sampleInterval);
        // Like inject_crash: emitted only when used, so full-run request
        // lines keep their historic bytes.
        if (request.run.sampleMode != "full") {
            json.kv("sample_mode", request.run.sampleMode);
            json.kv("sample_window", request.run.sampleWindow);
            json.kv("sample_period", request.run.samplePeriod);
            json.kv("sample_seed", request.run.sampleSeed);
            json.kv("sample_warm", request.run.sampleWarm);
        }
        if (request.run.injectCrash)
            json.kv("inject_crash", true);
        json.endObject();
        break;
      case Request::Op::Stats:
      case Request::Op::Metrics:
      case Request::Op::Spans:
      case Request::Op::Shutdown:
        break;
    }
    json.endObject();
    return json.str();
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    std::string parse_error;
    std::optional<obs::JsonValue> doc = obs::parseJson(line, &parse_error);
    if (!doc) {
        error = "malformed JSON: " + parse_error;
        return false;
    }
    if (doc->type != obs::JsonValue::Type::Object) {
        error = "request must be a JSON object";
        return false;
    }

    const obs::JsonValue *schema = doc->find("schema");
    if (!schema || schema->type != obs::JsonValue::Type::String ||
        schema->string != obs::kServeSchema) {
        error = std::string("request schema must be '") + obs::kServeSchema +
                "'";
        return false;
    }
    const obs::JsonValue *kind = doc->find("kind");
    if (!kind || kind->type != obs::JsonValue::Type::String ||
        kind->string != "request") {
        error = "request kind must be 'request'";
        return false;
    }
    const obs::JsonValue *op = doc->find("op");
    if (!op || op->type != obs::JsonValue::Type::String) {
        error = "request is missing the 'op' field";
        return false;
    }

    Request parsed;
    if (!opFromName(op->string, parsed.op)) {
        error = "unknown op '" + op->string + "'";
        return false;
    }

    switch (parsed.op) {
      case Request::Op::Status:
      case Request::Op::Fetch:
        if (!doc->find("job")) {
            error = std::string(opName(parsed.op)) + " requires a 'job' field";
            return false;
        }
        if (!readField(*doc, "job", parsed.job, error))
            return false;
        break;
      case Request::Op::Submit: {
          const obs::JsonValue *run = doc->find("run");
          if (!run || run->type != obs::JsonValue::Type::Object) {
              error = "submit requires a 'run' object";
              return false;
          }
          RunRequest &r = parsed.run;
          if (!readField(*run, "workload", r.workload, error) ||
              !readField(*run, "prefetcher", r.prefetcher, error) ||
              !readField(*run, "data_prefetcher", r.dataPrefetcher, error) ||
              !readField(*run, "instructions", r.instructions, error) ||
              !readField(*run, "warmup", r.warmup, error) ||
              !readField(*run, "physical_l1i", r.physical, error) ||
              !readField(*run, "sample_interval", r.sampleInterval, error) ||
              !readField(*run, "sample_mode", r.sampleMode, error) ||
              !readField(*run, "sample_window", r.sampleWindow, error) ||
              !readField(*run, "sample_period", r.samplePeriod, error) ||
              !readField(*run, "sample_seed", r.sampleSeed, error) ||
              !readField(*run, "sample_warm", r.sampleWarm, error) ||
              !readField(*run, "inject_crash", r.injectCrash, error)) {
              return false;
          }
          if (r.workload.empty()) {
              error = "submit workload must be non-empty";
              return false;
          }
          if (r.instructions == 0) {
              error = "submit instructions must be positive";
              return false;
          }
          // Schedule validation lives here, not in the worker: a bad
          // schedule must be a rejected request, never a daemon panic.
          error = sample::scheduleError(r.sampleMode, r.sampleWindow,
                                        r.samplePeriod, r.instructions);
          if (!error.empty()) {
              error = "submit " + error;
              return false;
          }
          break;
      }
      case Request::Op::Stats:
      case Request::Op::Metrics:
      case Request::Op::Spans:
      case Request::Op::Shutdown:
        break;
    }

    out = parsed;
    return true;
}

harness::RunSpec
toRunSpec(const RunRequest &run)
{
    // Deliberately not RunSpec::defaultSpec(): the daemon serves exactly
    // the budgets the request names — EIP_SIM_SCALE in the daemon's
    // environment must not silently rescale a client's experiment (and
    // would poison cache keys across differently-scaled daemons).
    harness::RunSpec spec;
    spec.configId = run.prefetcher;
    spec.instructions = run.instructions;
    spec.warmup = run.warmup;
    spec.physicalL1i = run.physical;
    spec.dataPrefetcher = run.dataPrefetcher;
    spec.sampleInterval = run.sampleInterval;
    spec.sampleMode = run.sampleMode;
    spec.sampleWindow = run.sampleWindow;
    spec.samplePeriod = run.samplePeriod;
    spec.sampleSeed = run.sampleSeed;
    spec.sampleWarm = run.sampleWarm;
    spec.collectCounters = true;
    return spec;
}

} // namespace eip::serve
