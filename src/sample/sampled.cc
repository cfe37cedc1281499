#include "sample/sampled.hh"

#include "obs/phase.hh"
#include "util/panic.hh"

namespace eip::sample {

SampledResult
runSampled(sim::Cpu &cpu, trace::InstructionSource &trace,
           uint64_t instructions, uint64_t warmup, const SampleSpec &spec,
           obs::PhaseProfiler *profiler)
{
    EIP_ASSERT(spec.mode == Mode::Periodic,
               "runSampled requires a periodic sampling spec");
    const std::vector<Phase> schedule = buildSchedule(spec, instructions);
    EIP_ASSERT(!schedule.empty(), "periodic schedule produced no windows");

    Welford ipc;
    Welford mpki;
    Welford coverage;
    Welford accuracy;

    SampledResult result;
    result.summary.offset = scheduleOffset(spec);

    // The warm-up phase is functional too: a timed warm-up would cap the
    // host speedup near 2x regardless of the window fraction, and the
    // structures it exists to train are exactly the ones warming trains.
    if (warmup > 0) {
        if (profiler != nullptr)
            profiler->transition("warming");
        cpu.warmFunctional(trace, warmup);
        result.summary.warmedInstructions += warmup;
    }

    // The warm clock runs at the CPI of the most recent detailed window
    // (1:1 until one exists) so warm MSHR occupancy spans realistic
    // instruction distances — see Cpu::warmFunctional.
    uint64_t cpi_cycles = 1;
    uint64_t cpi_instructions = 1;

    bool first = true;
    for (const Phase &phase : schedule) {
        if (phase.skip > 0) {
            // Source-level fast-forward: nothing in the simulator observes
            // the skipped region, so the clock, stats and every trained
            // structure stay frozen across it.
            if (profiler != nullptr)
                profiler->transition("fast_forward");
            trace.skip(phase.skip);
            result.summary.skippedInstructions += phase.skip;
        }
        if (phase.warm > 0) {
            if (profiler != nullptr)
                profiler->transition("warming");
            cpu.warmFunctional(trace, phase.warm, cpi_cycles,
                               cpi_instructions);
            result.summary.warmedInstructions += phase.warm;
        }
        if (first) {
            cpu.beginMeasurement();
            first = false;
        }
        if (profiler != nullptr)
            profiler->transition("window");
        sim::Cpu::WindowStats w = cpu.runWindow(trace, phase.window);
        if (w.cycles > 0 && w.instructions > 0) {
            cpi_cycles = w.cycles;
            cpi_instructions = w.instructions;
        }
        ipc.add(sim::ipcOf(w.instructions, w.cycles));
        mpki.add(sim::mpkiOf(w.l1iDemandMisses, w.instructions));
        coverage.add(sim::coverageOf(w.l1iUsefulPrefetches,
                                     w.l1iDemandMisses, w.l1iLatePrefetches));
        accuracy.add(sim::accuracyOf(w.l1iUsefulPrefetches,
                                     w.l1iPrefetchIssued));
        ++result.summary.windows;
        result.summary.windowInstructions += w.instructions;
    }

    if (profiler != nullptr)
        profiler->transition("fill_drain");

    result.summary.ipc = summarize(ipc);
    result.summary.l1iMpki = summarize(mpki);
    result.summary.l1iCoverage = summarize(coverage);
    result.summary.l1iAccuracy = summarize(accuracy);
    result.stats = cpu.stats();
    return result;
}

} // namespace eip::sample
