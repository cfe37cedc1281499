#include "serve/metrics.hh"

#include <cstdio>

#include "obs/span.hh"
#include "util/stats_math.hh"

namespace eip::serve {

namespace {

/** Keep a flood from growing the deque without bound inside one
 *  window; beyond this the oldest samples go early (the view is
 *  approximate during pathological storms, exact otherwise). */
constexpr size_t kMaxSamples = 1 << 16;

} // namespace

MetricsWindow::MetricsWindow(uint64_t window_seconds)
    : windowUs_((window_seconds == 0 ? 1 : window_seconds) * 1000000ull)
{
}

void
MetricsWindow::record(Outcome outcome, double latency_ms)
{
    const uint64_t now = obs::monotonicMicros();
    std::lock_guard<std::mutex> lock(mutex_);
    pruneLocked(now);
    if (samples_.size() >= kMaxSamples)
        samples_.pop_front();
    samples_.push_back({now, outcome, latency_ms});
}

void
MetricsWindow::pruneLocked(uint64_t now_us)
{
    const uint64_t horizon = now_us > windowUs_ ? now_us - windowUs_ : 0;
    while (!samples_.empty() && samples_.front().atUs < horizon)
        samples_.pop_front();
}

MetricsWindow::View
MetricsWindow::view()
{
    const uint64_t now = obs::monotonicMicros();
    std::lock_guard<std::mutex> lock(mutex_);
    pruneLocked(now);

    View v;
    v.windowSeconds = windowUs_ / 1000000ull;
    // Indexed by Outcome.
    uint64_t *counts[] = {&v.cacheHits, &v.simulated, &v.failed,
                          &v.rejected};
    std::vector<double> latencies;
    latencies.reserve(samples_.size());
    for (const Sample &s : samples_) {
        ++v.requests;
        ++*counts[static_cast<size_t>(s.outcome)];
        if (s.outcome != Outcome::Rejected)
            latencies.push_back(s.latencyMs);
    }
    v.qps = static_cast<double>(v.requests) /
            static_cast<double>(v.windowSeconds);
    const uint64_t looked_up = v.cacheHits + v.simulated;
    v.hitRatio = looked_up == 0 ? 0.0
                                : static_cast<double>(v.cacheHits) /
                                      static_cast<double>(looked_up);
    if (!latencies.empty()) {
        v.p50Ms = percentile(latencies, 0.50);
        v.p95Ms = percentile(latencies, 0.95);
        v.p99Ms = percentile(latencies, 0.99);
    }
    return v;
}

namespace {

std::string
promName(const std::string &dotted)
{
    std::string name = "eip_";
    for (char c : dotted) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        name.push_back(ok ? c : '_');
    }
    return name;
}

void
appendValue(std::string &out, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
}

} // namespace

std::string
prometheusText(const obs::CounterDump &dump,
               const std::vector<std::pair<std::string, std::string>> &info)
{
    std::string out;
    if (!info.empty()) {
        out += "# TYPE eip_build_info gauge\neip_build_info{";
        bool first = true;
        for (const auto &[key, value] : info) {
            if (!first)
                out += ",";
            first = false;
            out += key + "=\"" + value + "\"";
        }
        out += "} 1\n";
    }
    for (const auto &[name, value] : dump.counters) {
        const std::string p = promName(name);
        out += "# TYPE " + p + " counter\n" + p + " " +
               std::to_string(value) + "\n";
    }
    for (const auto &[name, value] : dump.gauges) {
        const std::string p = promName(name);
        out += "# TYPE " + p + " gauge\n" + p + " ";
        appendValue(out, value);
        out += "\n";
    }
    for (const auto &[name, h] : dump.histograms) {
        // Bucket keys are already scaled units (milliseconds for the
        // request-wall histogram); export the summary pair scrapers
        // can rate() and divide.
        const std::string p = promName(name);
        out += "# TYPE " + p + " summary\n";
        out += p + "_count " + std::to_string(h.total) + "\n";
        out += p + "_sum ";
        appendValue(out, h.mean * static_cast<double>(h.total));
        out += "\n";
    }
    return out;
}

} // namespace eip::serve
