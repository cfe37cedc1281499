#include "serve/metrics.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace eip::serve {

namespace {

/** Latency buckets: one per microsecond below 2^(kSubBits+1) us, then
 *  2^kSubBits sub-buckets per power of two up to 2^kTopBit us (~67 s).
 *  A bucket's index is its top kSubBits+1 bits plus kSub per shift. */
constexpr unsigned kSubBits = 4;
constexpr unsigned kTopBit = 26;
constexpr size_t kSub = size_t{1} << kSubBits;
constexpr size_t kLatencyBuckets = kSub + (kTopBit - kSubBits) * kSub;

size_t
bucketOf(double latency_ms)
{
    const double us = latency_ms * 1000.0;
    if (us >= static_cast<double>(uint64_t{1} << kTopBit))
        return kLatencyBuckets; // Histogram's overflow bucket
    const uint64_t v = us > 0.0 ? static_cast<uint64_t>(us) : 0;
    const unsigned shift =
        std::max<unsigned>(std::bit_width(v), kSubBits + 1) - kSubBits - 1;
    return static_cast<size_t>(v >> shift) + shift * kSub;
}

/** Lower edge of @p bucket in microseconds (inverts bucketOf). */
double
bucketLowUs(size_t bucket)
{
    const size_t shift = bucket < kSub ? 0 : bucket / kSub - 1;
    return static_cast<double>((bucket - shift * kSub) << shift);
}

/** A fractional bucket index (Histogram::percentile) in milliseconds,
 *  linear between bucket midpoints: a sample is off by at most half a
 *  bucket (1/32). The overflow bucket saturates at its lower edge. */
double
indexToMs(double index)
{
    auto mid = [](size_t bucket) {
        return bucket >= kLatencyBuckets
                   ? bucketLowUs(kLatencyBuckets)
                   : (bucketLowUs(bucket) + bucketLowUs(bucket + 1)) / 2.0;
    };
    const auto lo = static_cast<size_t>(index);
    const double frac = index - static_cast<double>(lo);
    return (mid(lo) + frac * (mid(lo + 1) - mid(lo))) / 1000.0;
}

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

RequestLedger::Tally::Tally() : latency(kLatencyBuckets) {}

void
RequestLedger::Tally::add(Outcome outcome, size_t bucket)
{
    ++count[static_cast<size_t>(outcome)];
    if (outcome != Outcome::Rejected)
        latency.record(bucket);
}

void
RequestLedger::Tally::merge(const Tally &other)
{
    for (size_t i = 0; i < kOutcomes; ++i)
        count[i] += other.count[i];
    if (other.latency.total() == 0)
        return;
    // Bucket buckets() is the overflow bucket; record() maps it back.
    for (size_t bucket = 0; bucket <= latency.buckets(); ++bucket)
        if (const uint64_t n = other.latency.count(bucket))
            latency.record(bucket, n);
}

RequestLedger::Summary
RequestLedger::Tally::summary() const
{
    Summary s;
    s.count = count;
    for (uint64_t n : count)
        s.requests += n;
    if (latency.total() > 0) {
        s.p50Ms = indexToMs(latency.percentile(0.50));
        s.p95Ms = indexToMs(latency.percentile(0.95));
        s.p99Ms = indexToMs(latency.percentile(0.99));
    }
    return s;
}

RequestLedger::RequestLedger(uint64_t window_seconds, uint64_t now_us)
    : windowUs_((window_seconds == 0 ? 1 : window_seconds) * 1000000ull),
      slotUs_(windowUs_ / kSlots), startUs_(now_us)
{
}

void
RequestLedger::record(Outcome outcome, double latency_ms, uint64_t now_us)
{
    const size_t bucket = bucketOf(latency_ms);
    const uint64_t epoch = (now_us > startUs_ ? now_us - startUs_ : 0) /
                           slotUs_;
    std::lock_guard<std::mutex> lock(mutex_);
    total_.add(outcome, bucket);
    if (outcome != Outcome::Rejected)
        latencySumMs_ += latency_ms;
    // A slot still holding an older epoch is reused; one already moved
    // past this sample's epoch (a late record) keeps it out of the
    // window, not out of the since-start counts.
    Tally &slot = slots_[epoch % kSlots];
    if (slot.epoch < epoch) {
        slot = Tally();
        slot.epoch = epoch;
    }
    if (slot.epoch == epoch)
        slot.add(outcome, bucket);
}

RequestLedger::View
RequestLedger::view(uint64_t now_us)
{
    const uint64_t age = now_us > startUs_ ? now_us - startUs_ : 0;
    const uint64_t epoch = age / slotUs_;
    Tally window;
    View v;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Tally &slot : slots_)
            if (slot.epoch + kSlots > epoch)
                window.merge(slot);
        v.sinceStart = total_.summary();
        v.latencySumMs = latencySumMs_;
    }
    v.windowSeconds = windowUs_ / 1000000ull;
    v.window = window.summary();
    // The counted slots cover the ledger's age until it is a window
    // old, then the last kSlots - 1 whole slots plus the current one.
    const uint64_t span_us =
        epoch < kSlots ? age : age - (epoch - (kSlots - 1)) * slotUs_;
    v.qps = span_us == 0 ? 0.0
                         : static_cast<double>(v.window.requests) * 1e6 /
                               static_cast<double>(span_us);
    const uint64_t hits = v.window.of(Outcome::Cache);
    const uint64_t looked_up = hits + v.window.of(Outcome::Simulated);
    v.hitRatio = looked_up == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(looked_up);
    return v;
}

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
    return out;
}

} // namespace eip::serve
