#include "obs/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "obs/json.hh"

namespace eip::obs {

const char *
pfDropReasonName(PfDropReason reason)
{
    switch (reason) {
    case PfDropReason::QueueFull: return "queue_full";
    case PfDropReason::DupQueued: return "dup_queued";
    case PfDropReason::DupCached: return "dup_cached";
    case PfDropReason::DupInflight: return "dup_inflight";
    case PfDropReason::CrossPage: return "cross_page";
    }
    return "unknown";
}

const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
    case StallReason::LineMiss: return "line_miss";
    case StallReason::FtqEmptyMispredict: return "ftq_empty_mispredict";
    case StallReason::FtqEmptyStarved: return "ftq_empty_starved";
    case StallReason::BackendFull: return "backend_full";
    }
    return "unknown";
}

std::optional<uint32_t>
parseTraceFamilies(const std::string &spec)
{
    uint32_t mask = 0;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string name = spec.substr(pos, comma - pos);
        if (name == "pf")
            mask |= kTracePf;
        else if (name == "stall")
            mask |= kTraceStall;
        else if (name == "cache")
            mask |= kTraceCache;
        else
            return std::nullopt;
        pos = comma + 1;
    }
    return mask;
}

uint64_t
LifecycleCounts::droppedTotal() const
{
    return dropQueueFull + dropDupQueued + dropDupCached + dropDupInflight +
           dropCrossPage;
}

int64_t
LifecycleCounts::inQueue() const
{
    return static_cast<int64_t>(queued) - static_cast<int64_t>(issued) -
           static_cast<int64_t>(dropDupCached) -
           static_cast<int64_t>(dropDupInflight);
}

int64_t
LifecycleCounts::inFlight() const
{
    return static_cast<int64_t>(issued) - static_cast<int64_t>(filled);
}

int64_t
LifecycleCounts::residentUnused() const
{
    return static_cast<int64_t>(filled) -
           static_cast<int64_t>(filledAfterDemand) -
           static_cast<int64_t>(firstUse) -
           static_cast<int64_t>(evictedUnused);
}

EventTracer::EventTracer(const TraceConfig &cfg_) : cfg(cfg_)
{
    if (cfg.limit == 0)
        cfg.limit = 1;
}

void
EventTracer::record(TraceEvent ev, uint32_t family)
{
    if ((cfg.families & family) == 0)
        return;
    ++recorded;
    if (ring.size() < cfg.limit) {
        ring.push_back(ev);
        return;
    }
    ring[head] = ev;
    head = (head + 1) % cfg.limit;
    didWrap = true;
}

void
EventTracer::pfRequested(uint64_t line, uint64_t cycle)
{
    ++life.requested;
    record({cycle, line, 0,
            static_cast<uint8_t>(TraceEventKind::PfRequested), 0},
           kTracePf);
}

void
EventTracer::pfQueued(uint64_t line, uint64_t cycle)
{
    ++life.queued;
    record({cycle, line, 0, static_cast<uint8_t>(TraceEventKind::PfQueued),
            0},
           kTracePf);
}

void
EventTracer::pfDropped(uint64_t line, uint64_t cycle, PfDropReason reason)
{
    switch (reason) {
    case PfDropReason::QueueFull: ++life.dropQueueFull; break;
    case PfDropReason::DupQueued: ++life.dropDupQueued; break;
    case PfDropReason::DupCached: ++life.dropDupCached; break;
    case PfDropReason::DupInflight: ++life.dropDupInflight; break;
    case PfDropReason::CrossPage: ++life.dropCrossPage; break;
    }
    record({cycle, line, 0, static_cast<uint8_t>(TraceEventKind::PfDropped),
            static_cast<uint8_t>(reason)},
           kTracePf);
}

void
EventTracer::pfMshrDefer(uint64_t line, uint64_t cycle)
{
    ++life.mshrDeferrals;
    record({cycle, line, 0,
            static_cast<uint8_t>(TraceEventKind::PfMshrDefer), 0},
           kTracePf);
}

void
EventTracer::pfIssued(uint64_t line, uint64_t cycle)
{
    ++life.issued;
    record({cycle, line, 0, static_cast<uint8_t>(TraceEventKind::PfIssued),
            0},
           kTracePf);
}

void
EventTracer::pfFilled(uint64_t line, uint64_t cycle, bool demand_touched)
{
    ++life.filled;
    if (demand_touched)
        ++life.filledAfterDemand;
    record({cycle, line, 0, static_cast<uint8_t>(TraceEventKind::PfFilled),
            static_cast<uint8_t>(demand_touched ? 1 : 0)},
           kTracePf);
}

void
EventTracer::pfFirstUse(uint64_t line, uint64_t cycle)
{
    ++life.firstUse;
    record({cycle, line, 0,
            static_cast<uint8_t>(TraceEventKind::PfFirstUse), 0},
           kTracePf);
}

void
EventTracer::pfLateUse(uint64_t line, uint64_t cycle, uint64_t wait)
{
    ++life.lateUse;
    record({cycle, line, wait,
            static_cast<uint8_t>(TraceEventKind::PfLateUse), 0},
           kTracePf);
}

void
EventTracer::pfEvictedUnused(uint64_t line, uint64_t cycle)
{
    ++life.evictedUnused;
    record({cycle, line, 0,
            static_cast<uint8_t>(TraceEventKind::PfEvictedUnused), 0},
           kTracePf);
}

void
EventTracer::stallCycle(StallReason reason, uint64_t first, uint64_t count)
{
    stalls[static_cast<size_t>(reason)] += count;
    idle += count;
    if (stallOpen && stallReason == reason && first == stallEnd) {
        stallEnd = first + count;
        return;
    }
    closeStallSpan();
    stallOpen = true;
    stallReason = reason;
    stallStart = first;
    stallEnd = first + count;
}

void
EventTracer::fetchActive()
{
    if (stallOpen)
        closeStallSpan();
}

void
EventTracer::closeStallSpan()
{
    if (!stallOpen)
        return;
    stallOpen = false;
    record({stallStart, 0, stallEnd - stallStart,
            static_cast<uint8_t>(TraceEventKind::StallSpan),
            static_cast<uint8_t>(stallReason)},
           kTraceStall);
}

void
EventTracer::demandMiss(uint64_t line, uint64_t cycle, uint64_t wait)
{
    record({cycle, line, wait,
            static_cast<uint8_t>(TraceEventKind::DemandMiss), 0},
           kTraceCache);
}

void
EventTracer::measurementBoundary(uint64_t cycle)
{
    closeStallSpan();
    life = LifecycleCounts{};
    stalls.fill(0);
    idle = 0;
    record({cycle, 0, 0,
            static_cast<uint8_t>(TraceEventKind::MeasureStart), 0},
           ~0u);
}

void
EventTracer::finish()
{
    closeStallSpan();
}

namespace {

/** Per-kind rendering table: trace_event name, category and tid. */
struct EventStyle
{
    const char *name;
    const char *cat;
    int tid;
};

EventStyle
styleFor(const TraceEvent &ev)
{
    switch (static_cast<TraceEventKind>(ev.kind)) {
    case TraceEventKind::PfRequested:
        return {"pf_requested", "pf", 1};
    case TraceEventKind::PfQueued:
        return {"pf_queued", "pf", 1};
    case TraceEventKind::PfDropped:
        return {"pf_dropped", "pf", 1};
    case TraceEventKind::PfMshrDefer:
        return {"pf_mshr_defer", "pf", 1};
    case TraceEventKind::PfIssued:
        return {"pf_issued", "pf", 1};
    case TraceEventKind::PfFilled:
        return {"pf_filled", "pf", 1};
    case TraceEventKind::PfFirstUse:
        return {"pf_first_use", "pf", 1};
    case TraceEventKind::PfLateUse:
        return {"pf_late_use", "pf", 1};
    case TraceEventKind::PfEvictedUnused:
        return {"pf_evicted_unused", "pf", 1};
    case TraceEventKind::StallSpan:
        return {stallReasonName(static_cast<StallReason>(ev.sub)), "stall",
                2};
    case TraceEventKind::DemandMiss:
        return {"l1i_demand_miss", "cache", 3};
    case TraceEventKind::MeasureStart:
        return {"measure_start", "meta", 1};
    }
    return {"unknown", "meta", 1};
}

std::string
hexLine(uint64_t line)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, line);
    return buf;
}

void
writeThreadName(JsonWriter &json, int tid, const char *name)
{
    json.beginObject()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", 1)
        .kv("tid", tid);
    json.key("args").beginObject().kv("name", name).endObject();
    json.endObject();
}

void
writeEvent(JsonWriter &json, const TraceEvent &ev)
{
    const EventStyle style = styleFor(ev);
    const auto kind = static_cast<TraceEventKind>(ev.kind);
    const bool span = kind == TraceEventKind::StallSpan;

    json.beginObject()
        .kv("name", style.name)
        .kv("cat", style.cat)
        .kv("ph", span ? "X" : "i")
        .kv("ts", ev.cycle)
        .kv("pid", 1)
        .kv("tid", style.tid);
    if (span)
        json.kv("dur", ev.arg);
    else
        json.kv("s", "t");
    json.key("args").beginObject();
    switch (kind) {
    case TraceEventKind::PfDropped:
        json.kv("line", hexLine(ev.line))
            .kv("reason",
                pfDropReasonName(static_cast<PfDropReason>(ev.sub)));
        break;
    case TraceEventKind::PfFilled:
        json.kv("line", hexLine(ev.line))
            .kv("demand_touched", ev.sub != 0);
        break;
    case TraceEventKind::PfLateUse:
        json.kv("line", hexLine(ev.line)).kv("wait", ev.arg);
        break;
    case TraceEventKind::DemandMiss:
        json.kv("line", hexLine(ev.line)).kv("wait", ev.arg);
        break;
    case TraceEventKind::StallSpan:
    case TraceEventKind::MeasureStart:
        break;
    default:
        json.kv("line", hexLine(ev.line));
        break;
    }
    json.endObject();
    json.endObject();
}

} // namespace

std::string
EventTracer::toJson(
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    JsonWriter json;
    json.beginObject();
    json.kv("schema", kTraceSchema);
    // One simulated cycle maps to one trace_event microsecond; viewers
    // display it as time, we read it as cycles.
    json.kv("displayTimeUnit", "ms");

    json.key("meta").beginObject();
    json.kv("clock", "cycles");
    json.kv("limit", static_cast<uint64_t>(cfg.limit));
    json.kv("recorded", recorded);
    json.kv("retained", static_cast<uint64_t>(ring.size()));
    json.kv("wrapped", didWrap);
    // Which event families fed the ring; readers need this to know
    // whether an absent family means "filtered" or "never happened"
    // (reconcileEvents only trusts pf event counts when "pf" is here).
    std::string families;
    if ((cfg.families & kTracePf) != 0)
        families += "pf";
    if ((cfg.families & kTraceStall) != 0)
        families += families.empty() ? "stall" : ",stall";
    if ((cfg.families & kTraceCache) != 0)
        families += families.empty() ? "cache" : ",cache";
    json.kv("families", families);
    for (const auto &[key, value] : meta)
        json.kv(key, value);
    json.endObject();

    json.key("lifecycle").beginObject();
    json.kv("requested", life.requested);
    json.kv("queued", life.queued);
    json.kv("drop_queue_full", life.dropQueueFull);
    json.kv("drop_dup_queued", life.dropDupQueued);
    json.kv("drop_dup_cached", life.dropDupCached);
    json.kv("drop_dup_inflight", life.dropDupInflight);
    json.kv("drop_cross_page", life.dropCrossPage);
    json.kv("mshr_deferrals", life.mshrDeferrals);
    json.kv("issued", life.issued);
    json.kv("filled", life.filled);
    json.kv("filled_after_demand", life.filledAfterDemand);
    json.kv("first_use", life.firstUse);
    json.kv("late_use", life.lateUse);
    json.kv("evicted_unused", life.evictedUnused);
    json.endObject();

    json.key("stalls").beginObject();
    for (size_t i = 0; i < kStallReasons; ++i)
        json.kv(stallReasonName(static_cast<StallReason>(i)), stalls[i]);
    json.kv("idle_cycles", idle);
    json.endObject();

    json.key("traceEvents").beginArray();
    json.beginObject()
        .kv("name", "process_name")
        .kv("ph", "M")
        .kv("pid", 1);
    json.key("args").beginObject().kv("name", "eipsim").endObject();
    json.endObject();
    writeThreadName(json, 1, "prefetch lifecycle");
    writeThreadName(json, 2, "fetch stalls");
    writeThreadName(json, 3, "l1i demand misses");
    // Oldest first: [head, end) then [0, head) once wrapped.
    for (size_t i = head; i < ring.size(); ++i)
        writeEvent(json, ring[i]);
    for (size_t i = 0; i < head; ++i)
        writeEvent(json, ring[i]);
    json.endArray();

    json.endObject();
    std::string out = json.str();
    out.push_back('\n');
    return out;
}

} // namespace eip::obs
