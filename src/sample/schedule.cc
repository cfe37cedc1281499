#include "sample/schedule.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/panic.hh"

namespace eip::sample {

bool
parseMode(const std::string &text, Mode *out)
{
    if (text == "full") {
        *out = Mode::Full;
        return true;
    }
    if (text == "periodic") {
        *out = Mode::Periodic;
        return true;
    }
    return false;
}

std::string
modeName(Mode mode)
{
    return mode == Mode::Full ? "full" : "periodic";
}

std::string
scheduleError(const std::string &mode, uint64_t window, uint64_t period,
              uint64_t instructions)
{
    Mode parsed;
    if (!parseMode(mode, &parsed))
        return "sample mode must be full or periodic";
    if (parsed == Mode::Full)
        return "";
    if (window == 0)
        return "sample window must be positive";
    if (period < window)
        return "sample period must be at least the window length";
    if (instructions == 0)
        return "instruction budget must be positive";
    return "";
}

void
validateSpec(const SampleSpec &spec, uint64_t instructions)
{
    const std::string error = scheduleError(
        modeName(spec.mode), spec.window, spec.period, instructions);
    EIP_ASSERT(error.empty(), error.c_str());
}

uint64_t
scheduleOffset(const SampleSpec &spec)
{
    uint64_t slack = spec.period - spec.window;
    if (slack == 0)
        return 0;
    // Deterministic seed -> offset mix; the decimal form keeps the hash
    // function shared with every other content address in the repo.
    return util::fnv1a64("sample-offset\x1f" + std::to_string(spec.seed)) %
           (slack + 1);
}

std::vector<Phase>
buildSchedule(const SampleSpec &spec, uint64_t instructions)
{
    validateSpec(spec, instructions);
    std::vector<Phase> phases;
    if (spec.mode == Mode::Full)
        return phases;

    const uint64_t offset = scheduleOffset(spec);
    uint64_t pos = 0;
    for (uint64_t start = offset; start < instructions;
         start += spec.period) {
        uint64_t end = std::min(start + spec.window, instructions);
        const uint64_t gap = start - pos;
        const uint64_t warm =
            spec.warm == 0 ? gap : std::min(spec.warm, gap);
        phases.push_back(Phase{gap - warm, warm, end - start});
        pos = end;
    }
    return phases;
}

} // namespace eip::sample
