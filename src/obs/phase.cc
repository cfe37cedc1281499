#include "obs/phase.hh"

namespace eip::obs {

void
PhaseProfiler::transition(const std::string &name)
{
    const uint64_t now = monotonicMicros();
    if (!current_.empty())
        intervals_.push_back(
            {0, current_, currentStartUs_, now - currentStartUs_, {}});
    current_ = name;
    currentStartUs_ = now;
}

std::vector<std::pair<std::string, double>>
PhaseProfiler::totalsMs() const
{
    std::vector<std::pair<std::string, double>> totals;
    for (const SpanRecord &iv : intervals_) {
        const double ms = static_cast<double>(iv.durUs) / 1000.0;
        bool found = false;
        for (auto &[name, total] : totals) {
            if (name == iv.name) {
                total += ms;
                found = true;
                break;
            }
        }
        if (!found)
            totals.emplace_back(iv.name, ms);
    }
    return totals;
}

} // namespace eip::obs
