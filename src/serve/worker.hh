/**
 * @file
 * Crash-isolated job execution: each simulation runs in a forked child
 * process that streams its rendered eip-run/v1 artifact back over a
 * pipe and _exit()s. A child that crashes — assertion, bad memory
 * access, injected fault — takes down only its own address space: the
 * parent reaps it, decodes the wait status into a structured error,
 * and keeps serving every other request.
 */

#ifndef EIP_SERVE_WORKER_HH
#define EIP_SERVE_WORKER_HH

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/span.hh"

namespace eip::serve {

/** What became of one forked job. */
struct WorkerOutcome
{
    bool ok = false;
    /** The child died on a signal (as opposed to a clean nonzero exit
     *  or a truncated artifact). */
    bool crashed = false;
    std::string artifact; ///< complete eip-run/v1 document when ok
    std::string error;    ///< structured failure description when !ok
    /** Phase spans the child recorded (program_build, warmup, measure,
     *  fill_drain, serialize — absolute monotonic timestamps), relayed
     *  over the pipe as an eip-span/v1 preamble after the artifact
     *  line. Empty when the child died before writing it. */
    std::vector<obs::SpanRecord> childSpans;
};

/**
 * Run @p job in a forked worker and collect its artifact. With
 * @p inject_crash the child writes a deliberately truncated artifact
 * and abort()s mid-run — the fault path the crash-isolation tests
 * exercise end to end. The child profiles its run phases and appends
 * them as a one-line eip-span/v1 preamble after the artifact; the
 * artifact bytes themselves are those of an unprofiled run, so cached
 * results stay byte-identical to in-process output.
 *
 * The child never touches the parent's ProgramCache or any other lock
 * shared with parent threads (see runJobArtifact's fork-safety note),
 * and leaves via _exit() so no atexit handler of the embedding process
 * (bench banners, artifact writers) runs twice.
 */
WorkerOutcome runForkedJob(const harness::RunJob &job, bool inject_crash);

} // namespace eip::serve

#endif // EIP_SERVE_WORKER_HH
