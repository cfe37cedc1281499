/**
 * @file
 * TraceSource — the one seam between workload identity and instruction
 * production. A Workload names *what* runs; a TraceSource knows *how* to
 * produce its stream, and every backend (synthetic Executor, eip `.trc`
 * replay, ChampSim decode) hides behind the same factory, so the harness,
 * tools, and serve layer run any workload kind through one code path.
 */

#ifndef EIP_TRACE_SOURCE_HH
#define EIP_TRACE_SOURCE_HH

#include <memory>
#include <string>

#include "trace/instruction.hh"
#include "trace/workloads.hh"

namespace eip::trace {

struct Program;

/** Factory for instruction streams of one workload. open() always starts
 *  from the beginning, so one source can seed many independent runs. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** A fresh stream positioned at the start of the workload. */
    virtual std::unique_ptr<InstructionSource> open() = 0;
};

/**
 * Backend dispatch on @p workload.kind. Synthetic workloads read from
 * @p program (the caller owns the built Program — typically via the
 * harness program cache — and must keep it alive for the source's
 * lifetime); trace-backed workloads ignore it, pass nullptr.
 */
std::unique_ptr<TraceSource> makeTraceSource(const Workload &workload,
                                             const Program *program);

} // namespace eip::trace

#endif // EIP_TRACE_SOURCE_HH
