/**
 * @file
 * Deterministic sampling schedules (SMARTS-style, DESIGN.md §3.13):
 * systematic (periodic) sampling with a seeded starting offset. Every
 * period of M instructions contains one detailed window of N
 * instructions at offset o ∈ [0, M-N]; o is derived from the spec's
 * seed so two runs with the same spec sample identical regions (the
 * schedule is part of the content address) while different seeds probe
 * different phases of the workload.
 */

#ifndef EIP_SAMPLE_SCHEDULE_HH
#define EIP_SAMPLE_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace eip::sample {

/** Sampling mode: Full is conventional single-interval simulation (no
 *  sampling machinery at all); Periodic is systematic SMARTS sampling. */
enum class Mode : uint8_t
{
    Full,
    Periodic,
};

/** Parse "full"/"periodic"; returns false on anything else. */
bool parseMode(const std::string &text, Mode *out);

/** Canonical spelling of a mode (inverse of parseMode). */
std::string modeName(Mode mode);

/** Sampling spec as it travels through RunSpec / the serve protocol. */
struct SampleSpec
{
    Mode mode = Mode::Full;
    uint64_t window = 0; ///< detailed instructions per window (N)
    uint64_t period = 0; ///< instructions per period (M >= N)
    uint64_t seed = 0;   ///< offset derivation seed

    /**
     * Functional-warming bound: at most this many instructions are warmed
     * immediately before each window; the rest of the gap is fast-forwarded
     * at source level (InstructionSource::skip — no microarchitectural
     * state updates at all). 0 means warm the entire gap, the classic
     * SMARTS discipline. Bounded warming trades a little training history
     * (entangled-table and BTB entries older than the bound) for the bulk
     * of the host-time win; the eipdiff sampled-vs-full leg keeps the
     * trade honest.
     */
    uint64_t warm = 0;
};

/**
 * The schedule rules, one home for every boundary (the CLI flags, eipd's
 * submit parser, validateSpec): why a schedule of @p mode ("full" or
 * "periodic") with @p window / @p period cannot run over @p instructions,
 * or "" when it can. Zero-instruction windows and periods shorter than
 * their window can only produce nonsense estimates, so they are
 * configuration errors, not data points. Full mode ignores the rest.
 */
std::string scheduleError(const std::string &mode, uint64_t window,
                          uint64_t period, uint64_t instructions);

/** EIP_ASSERT (fatal) that @p spec passes scheduleError. */
void validateSpec(const SampleSpec &spec, uint64_t instructions);

/**
 * The seeded systematic offset o ∈ [0, period - window]: an FNV-1a mix
 * of the seed reduced into the slack. period == window leaves no slack,
 * so the offset is 0 for every seed — which is what makes a
 * window=total, period=total schedule degenerate to the full run
 * bit-for-bit (pinned by tests/test_sample.cc).
 */
uint64_t scheduleOffset(const SampleSpec &spec);

/** One alternation: fast-forward @p skip instructions (source-level, no
 *  state updates), functionally warm @p warm instructions, then simulate
 *  @p window instructions in detail. */
struct Phase
{
    uint64_t skip = 0;
    uint64_t warm = 0;
    uint64_t window = 0;
};

/**
 * Materialize the schedule over @p instructions: phase k covers the gap
 * up to the start of window k (k*period + offset) — split into a
 * fast-forward leg and a trailing warming leg per spec.warm — and runs
 * detailed until its end (clipped to the budget). Instructions after the
 * last window are neither warmed nor simulated — nothing downstream
 * observes them.
 */
std::vector<Phase> buildSchedule(const SampleSpec &spec,
                                 uint64_t instructions);

} // namespace eip::sample

#endif // EIP_SAMPLE_SCHEDULE_HH
