#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

std::unique_ptr<SpanRecorder> gRecorder;

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id = next.fetch_add(1);
    return id;
}

/** Open spans of this thread, innermost last. */
std::vector<int64_t> &
openStack()
{
    thread_local std::vector<int64_t> stack;
    return stack;
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::vector<uint64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[static_cast<size_t>(s.parent)];
        const uint64_t lo = std::max(s.startNs, p.startNs);
        const uint64_t hi = std::min(s.endNs, p.endNs);
        if (lo < hi)
            children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }
    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        uint64_t covered = 0;
        uint64_t reach = 0;
        for (const auto &[lo, hi] : kids) {
            const uint64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        const uint64_t duration = spans[i].endNs - spans[i].startNs;
        self[i] = duration - std::min(duration, covered);
    }
    return self;
}

int64_t
SpanRecorder::open(const char *name, int64_t parent)
{
    std::vector<int64_t> &stack = openStack();
    if (parent < 0 && !stack.empty())
        parent = stack.back();
    Span span;
    span.name = name;
    span.parent = parent;
    span.thread = threadId();
    int64_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = static_cast<int64_t>(spans_.size());
        spans_.push_back(std::move(span));
        spans_.back().startNs = nowNs();
    }
    stack.push_back(index);
    return index;
}

void
SpanRecorder::close(int64_t index)
{
    const uint64_t end = nowNs();
    std::vector<int64_t> &stack = openStack();
    if (!stack.empty() && stack.back() == index)
        stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].endNs = end;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
SpanRecorder::chromeTraceJson() const
{
    const std::vector<Span> all = spans();
    uint64_t origin = UINT64_MAX;
    for (const Span &s : all)
        origin = std::min(origin, s.startNs);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                      i == 0 ? "" : ",", s.name.c_str(),
                      static_cast<int>(s.name.find('.')), s.name.c_str(),
                      static_cast<double>(s.startNs - origin) / 1000.0,
                      static_cast<double>(s.endNs - s.startNs) / 1000.0,
                      s.thread, i, static_cast<long long>(s.parent));
        out += buf;
    }
    out += "]}\n";
    return out;
}

SpanRecorder *
recorder()
{
    return gRecorder.get();
}

void
enableRecorder()
{
    if (gRecorder == nullptr)
        gRecorder = std::make_unique<SpanRecorder>();
}

ScopedSpan::ScopedSpan(const char *name, int64_t parent)
{
    if (SpanRecorder *r = recorder())
        id_ = r->open(name, parent);
}

ScopedSpan::~ScopedSpan()
{
    if (id_ >= 0)
        recorder()->close(id_);
}

int64_t
currentSpan()
{
    const std::vector<int64_t> &stack = openStack();
    return stack.empty() ? -1 : stack.back();
}

} // namespace perfbench
