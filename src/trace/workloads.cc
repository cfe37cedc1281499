#include "trace/workloads.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_set>

#include "trace/source.hh"
#include "util/hash.hh"
#include "util/panic.hh"

namespace eip::trace {

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Synthetic:
        return "synthetic";
    case WorkloadKind::EipTrace:
        return "eip-trace";
    case WorkloadKind::ChampSim:
        return "champsim";
    }
    EIP_PANIC("unknown WorkloadKind");
}

ProgramConfig
categoryConfig(const std::string &category)
{
    ProgramConfig cfg;
    if (category == "crypto") {
        // Medium footprint, tight loops, few calls: moderate L1I pressure.
        cfg.numFunctions = 400;
        cfg.minBlocksPerFunction = 6;
        cfg.maxBlocksPerFunction = 14;
        cfg.minBlockInsts = 4;
        cfg.maxBlockInsts = 16;
        cfg.condBlockFraction = 0.35;
        cfg.callBlockFraction = 0.12;
        cfg.jumpBlockFraction = 0.06;
        cfg.loopFraction = 0.45;
        cfg.minLoopTrips = 4;
        cfg.maxLoopTrips = 16;
        cfg.fpFraction = 0.05;
        cfg.indirectFraction = 0.05;
        cfg.dispatcherFanout = 96;
        cfg.dispatcherLoopTrips = 12;
        cfg.maxCalleeCost = 5000.0;
        cfg.moduleCount = 2;
    } else if (category == "int") {
        // Branchy integer code, medium footprint and call depth.
        cfg.numFunctions = 1100;
        cfg.minBlocksPerFunction = 4;
        cfg.maxBlocksPerFunction = 12;
        cfg.minBlockInsts = 2;
        cfg.maxBlockInsts = 12;
        cfg.condBlockFraction = 0.40;
        cfg.callBlockFraction = 0.22;
        cfg.jumpBlockFraction = 0.08;
        cfg.loopFraction = 0.20;
        cfg.minLoopTrips = 2;
        cfg.maxLoopTrips = 16;
        cfg.indirectFraction = 0.10;
        cfg.dispatcherFanout = 32;
        cfg.dispatcherEvery = 80;
        cfg.dispatcherLoopTrips = 8;
        cfg.maxCalleeCost = 1500.0;
        cfg.moduleCount = 4;
    } else if (category == "fp") {
        // Large basic blocks, long loops, FP mix.
        cfg.numFunctions = 700;
        cfg.minBlocksPerFunction = 4;
        cfg.maxBlocksPerFunction = 10;
        cfg.minBlockInsts = 8;
        cfg.maxBlockInsts = 24;
        cfg.condBlockFraction = 0.30;
        cfg.callBlockFraction = 0.18;
        cfg.jumpBlockFraction = 0.05;
        cfg.loopFraction = 0.42;
        cfg.minLoopTrips = 4;
        cfg.maxLoopTrips = 24;
        cfg.fpFraction = 0.40;
        cfg.indirectFraction = 0.06;
        cfg.dispatcherFanout = 72;
        cfg.dispatcherLoopTrips = 12;
        cfg.maxCalleeCost = 8000.0;
        cfg.moduleCount = 2;
    } else if (category == "srv") {
        // Server-class: multi-MB footprint, deep call chains, low reuse.
        cfg.numFunctions = 4100;
        cfg.minBlocksPerFunction = 4;
        cfg.maxBlocksPerFunction = 12;
        cfg.minBlockInsts = 2;
        cfg.maxBlockInsts = 14;
        cfg.condBlockFraction = 0.32;
        cfg.callBlockFraction = 0.30;
        cfg.jumpBlockFraction = 0.08;
        cfg.indirectFraction = 0.20;
        cfg.loopFraction = 0.12;
        cfg.minLoopTrips = 2;
        cfg.maxLoopTrips = 8;
        cfg.callLocality = 0.6;
        cfg.dispatcherFanout = 48;
        cfg.dispatcherEvery = 25;
        cfg.dispatcherLoopTrips = 4;
        cfg.maxCalleeCost = 900.0;
        cfg.moduleCount = 12;
    } else {
        EIP_FATAL("unknown workload category");
    }
    return cfg;
}

namespace {

/** One recurrence window of the selection probe, in instructions. */
constexpr uint64_t kQualifyWindow = 400000;

/** Footprint threshold of the selection probe: >= ~40KB of touched code
 *  (vs the 32KB L1I) corresponds to >= 1 L1I MPKI on this simulator. */
constexpr uint64_t kQualifyFootprintBytes = 40 * 1024;

/** Pinned seeds per CVP category. */
constexpr int kCvpSeeds = 3;

/** The pinned seeds of one CVP category, in suite order: the first
 *  kCvpSeeds candidates s = 1, 2, ... (program seed 0x1000 * s +
 *  strlen(category), exec seed 0x77 + s - 1) that pass
 *  workloadQualifies, found by Workloads.CvpSuiteIsThePinnedSeedSearch
 *  (tests/test_trace.cc). */
struct CvpCategory
{
    const char *name;
    struct
    {
        uint64_t program;
        uint64_t exec;
    } seeds[kCvpSeeds];
};

constexpr CvpCategory kCvpSuite[] = {
    {"crypto", {{0x1006, 0x77}, {0x4006, 0x7a}, {0x5006, 0x7b}}}, // s=1,4,5
    {"int", {{0x1003, 0x77}, {0x2003, 0x78}, {0x3003, 0x79}}},    // s=1,2,3
    {"fp", {{0x1002, 0x77}, {0x3002, 0x79}, {0x5002, 0x7b}}},     // s=1,3,5
    {"srv", {{0x1003, 0x77}, {0x2003, 0x78}, {0x3003, 0x79}}},    // s=1,2,3
};

/** "<category>-<k>": the @p index'th (0-based) pinned seed of @p cat. */
Workload
cvpWorkload(const CvpCategory &cat, int index)
{
    Workload w;
    w.name = std::string(cat.name) + "-" + std::to_string(index + 1);
    w.category = cat.name;
    w.program = categoryConfig(cat.name);
    w.program.seed = cat.seeds[index].program;
    w.exec.seed = cat.seeds[index].exec;
    return w;
}

/** A CloudSuite-like application: a srv generator retuned by @p tune,
 *  seeded (program and executor) with @p seed. */
struct CloudApp
{
    const char *name;
    uint64_t seed;
    void (*tune)(ProgramConfig &);
};

const CloudApp kCloudSuite[] = {
    // cassandra: Java data store — very large footprint, deep calls.
    {"cassandra", 0xCA55,
     [](ProgramConfig &p) {
         p.numFunctions = 4200;
         p.callBlockFraction = 0.32;
         p.indirectFraction = 0.12; // virtual dispatch
     }},
    // cloud9: JS engine — indirect-heavy medium-large footprint.
    {"cloud9", 0xC109,
     [](ProgramConfig &p) {
         p.numFunctions = 2600;
         p.indirectFraction = 0.18;
         p.jumpBlockFraction = 0.12;
     }},
    // nutch: crawler/indexer — large footprint, mixed loops and calls.
    {"nutch", 0x0706,
     [](ProgramConfig &p) {
         p.numFunctions = 3600;
         p.loopFraction = 0.2;
         p.maxLoopTrips = 16;
     }},
    // streaming: media server — streaming loops over a large code base.
    {"streaming", 0x57AE,
     [](ProgramConfig &p) {
         p.numFunctions = 2000;
         p.loopFraction = 0.35;
         p.minLoopTrips = 8;
         p.maxLoopTrips = 64;
         p.minBlockInsts = 4;
         p.maxBlockInsts = 18;
     }},
};

Workload
cloudWorkload(const CloudApp &app)
{
    Workload w;
    w.name = app.name;
    w.category = "cloud";
    w.program = categoryConfig("srv");
    app.tune(w.program);
    w.program.seed = app.seed;
    w.exec.seed = app.seed;
    return w;
}

} // namespace

bool
workloadQualifies(const Workload &workload, uint64_t *footprint_bytes)
{
    std::optional<Program> program;
    if (workload.kind == WorkloadKind::Synthetic)
        program = buildProgram(workload.program);
    std::unique_ptr<InstructionSource> stream =
        makeTraceSource(workload, program ? &*program : nullptr)->open();
    std::unordered_set<uint64_t> lines;
    for (uint64_t i = 0; i < kQualifyWindow; ++i)
        lines.insert(stream->next().pc >> 6);
    const uint64_t footprint = lines.size() * 64;
    if (footprint_bytes != nullptr)
        *footprint_bytes = footprint;
    return footprint >= kQualifyFootprintBytes;
}

std::vector<Workload>
cvpSuite(int seeds_per_category)
{
    EIP_ASSERT(seeds_per_category >= 1 && seeds_per_category <= kCvpSeeds,
               "cvpSuite pins 1..3 seeds per category");
    std::vector<Workload> suite;
    for (const CvpCategory &cat : kCvpSuite)
        for (int i = 0; i < seeds_per_category; ++i)
            suite.push_back(cvpWorkload(cat, i));
    return suite;
}

std::vector<Workload>
cloudSuite()
{
    std::vector<Workload> suite;
    for (const CloudApp &app : kCloudSuite)
        suite.push_back(cloudWorkload(app));
    return suite;
}

Workload
tinyWorkload(uint64_t seed)
{
    Workload w;
    w.name = "tiny";
    w.category = "int";
    w.program = categoryConfig("int");
    w.program.numFunctions = 120;
    w.program.seed = seed;
    w.exec.seed = seed * 31 + 7;
    return w;
}

bool
syntheticWorkload(const std::string &name, Workload &out)
{
    // CVP entries are "<category>-<k>" with a one-digit k.
    const size_t dash = name.find('-');
    if (dash != std::string::npos && dash + 2 == name.size()) {
        const int index = name[dash + 1] - '1';
        for (const CvpCategory &cat : kCvpSuite) {
            if (index >= 0 && index < kCvpSeeds &&
                name.compare(0, dash, cat.name) == 0) {
                out = cvpWorkload(cat, index);
                return true;
            }
        }
    }
    for (const CloudApp &app : kCloudSuite) {
        if (name == app.name) {
            out = cloudWorkload(app);
            return true;
        }
    }
    if (name != "tiny")
        return false;
    out = tinyWorkload();
    return true;
}

namespace {

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** FNV-1a over the stored file bytes, chunked so multi-GB traces never
 *  need to fit in memory. Returns false (with @p error set) on I/O error. */
bool
digestFile(const std::string &path, uint64_t &bytes_out,
           std::string &digest_out, std::string *error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        if (error)
            *error = "cannot open trace file: " + path;
        return false;
    }
    uint64_t hash = util::kFnvOffsetBasis;
    uint64_t bytes = 0;
    char chunk[64 * 1024];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
        hash = util::fnv1a64(std::string_view(chunk, got), hash);
        bytes += got;
    }
    const bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) {
        if (error)
            *error = "read error while digesting trace file: " + path;
        return false;
    }
    if (bytes == 0) {
        if (error)
            *error = "trace file is empty: " + path;
        return false;
    }
    bytes_out = bytes;
    digest_out = util::hex64(hash);
    return true;
}

} // namespace

bool
isTracePath(const std::string &path)
{
    return endsWith(path, ".trc") || endsWith(path, ".champsimtrace") ||
           endsWith(path, ".champsimtrace.xz") ||
           endsWith(path, ".champsimtrace.gz");
}

bool
tryTraceWorkload(const std::string &path, Workload &out, std::string *error)
{
    if (!isTracePath(path)) {
        if (error)
            *error = "unsupported trace extension (want .trc, .champsimtrace"
                     "[.xz|.gz]): " +
                     path;
        return false;
    }
    Workload w;
    if (!digestFile(path, w.traceBytes, w.traceDigest, error))
        return false;
    const size_t slash = path.find_last_of("/\\");
    w.name = slash == std::string::npos ? path : path.substr(slash + 1);
    w.category = "trace";
    w.kind = endsWith(path, ".trc") ? WorkloadKind::EipTrace
                                    : WorkloadKind::ChampSim;
    w.tracePath = path;
    out = std::move(w);
    return true;
}

Workload
capturedWorkload(const Workload &origin, const std::string &path)
{
    Workload w = origin;
    w.kind = WorkloadKind::EipTrace;
    w.tracePath = path;
    std::string error;
    if (!digestFile(path, w.traceBytes, w.traceDigest, &error))
        EIP_FATAL(error.c_str());
    return w;
}

} // namespace eip::trace
