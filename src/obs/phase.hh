/**
 * @file
 * Host-side wall-time phase profiler. A run passes through a handful
 * of coarse phases — program_build, warmup, measure, fill_drain, plus
 * one-off scopes like prefetcher construction or artifact
 * serialization — and knowing where the host time goes is what turns
 * a host-MIPS number from a mystery into a diagnosis. The profiler
 * records the interval of every phase occurrence and accumulates
 * per-phase totals (first-seen order, so manifests stay byte-stable);
 * totals land in `eip-run/v1` manifests as `phase_ms`, intervals
 * become spans in the serve trace.
 *
 * Hook discipline matches the tracer and the invariant auditor: the
 * simulator only calls `transition()` at phase boundaries (a few
 * times per run, never per cycle), and a disabled profiler is one
 * null-pointer test at each boundary.
 */

#ifndef EIP_OBS_PHASE_HH
#define EIP_OBS_PHASE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hh"

namespace eip::obs {

/**
 * Accumulates named wall-time phases. Not thread-safe — one profiler
 * belongs to one run on one thread (the worker child, or the CLI
 * single-run path).
 */
class PhaseProfiler
{
  public:
    /** Close the current phase (if any) and open @p name. An empty
     *  name just closes — the profiler goes idle. */
    void transition(const std::string &name);

    /** Close the current phase without opening another. */
    void close() { transition(std::string()); }

    /** RAII helper: transitions to a phase, then restores whatever
     *  phase was open when the scope began. A null profiler makes the
     *  scope a no-op, so callers need not test for one. */
    class Scope
    {
      public:
        Scope(PhaseProfiler *profiler, const std::string &name)
            : profiler_(profiler)
        {
            if (profiler_ != nullptr) {
                previous_ = profiler_->current_;
                profiler_->transition(name);
            }
        }
        ~Scope()
        {
            if (profiler_ != nullptr)
                profiler_->transition(previous_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        PhaseProfiler *profiler_;
        std::string previous_;
    };

    /** Every closed occurrence, in time order, as spans with no trace
     *  id or state (absolute monotonic microseconds). */
    const std::vector<SpanRecord> &intervals() const { return intervals_; }

    /** Per-phase accumulated wall milliseconds, first-seen order. */
    std::vector<std::pair<std::string, double>> totalsMs() const;

  private:
    std::string current_;
    uint64_t currentStartUs_ = 0;
    std::vector<SpanRecord> intervals_;
};

} // namespace eip::obs

#endif // EIP_OBS_PHASE_HH
