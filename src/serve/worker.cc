#include "serve/worker.hh"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/artifacts.hh"
#include "obs/phase.hh"

namespace eip::serve {

namespace {

/** Write all of @p text to @p fd, looping over partial writes. Errors
 *  are ignored — the child has no better channel to report them on;
 *  the parent sees a truncated artifact and records the failure. */
void
writeAll(int fd, const std::string &text)
{
    size_t written = 0;
    while (written < text.size()) {
        ssize_t n =
            ::write(fd, text.data() + written, text.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        written += static_cast<size_t>(n);
    }
}

/** Child-side body: simulate, stream the artifact followed by the
 *  span preamble, _exit. Never returns. */
[[noreturn]] void
childMain(int write_fd, const harness::RunJob &job, bool inject_crash)
{
    if (inject_crash) {
        // Mid-run fault: a recognizable artifact prefix is already on
        // the wire when the process dies, so the parent also proves it
        // discards partial output.
        writeAll(write_fd, "{\"schema\":\"eip-run/v1\"");
        std::abort();
    }
    obs::PhaseProfiler profiler;
    harness::ArtifactRun run = harness::runJobArtifact(
        job, /*use_program_cache=*/false, &profiler);
    writeAll(write_fd, run.json);
    writeAll(write_fd, obs::spanPreambleJson(profiler.intervals()));
    ::close(write_fd);
    ::_exit(0);
}

} // namespace

WorkerOutcome
runForkedJob(const harness::RunJob &job, bool inject_crash)
{
    WorkerOutcome outcome;

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
        outcome.error = std::string("pipe: ") + std::strerror(errno);
        return outcome;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        outcome.error = std::string("fork: ") + std::strerror(errno);
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        return outcome;
    }

    if (pid == 0) {
        ::close(pipe_fds[0]);
        childMain(pipe_fds[1], job, inject_crash);
    }

    ::close(pipe_fds[1]);
    std::string payload;
    char chunk[65536];
    for (;;) {
        ssize_t n = ::read(pipe_fds[0], chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;
        payload.append(chunk, static_cast<size_t>(n));
    }
    ::close(pipe_fds[0]);

    // The artifact is always exactly one line; anything after its
    // newline is the optional span preamble. A payload with no newline
    // at all is a truncated artifact and falls through to the length
    // check below unchanged.
    std::string artifact;
    std::string preamble;
    if (!obs::splitWorkerPayload(payload, artifact, preamble))
        artifact = std::move(payload);
    if (!preamble.empty() &&
        !obs::parseSpanPreamble(preamble, outcome.childSpans))
        outcome.childSpans.clear(); // partial preamble: spans are lost,
                                    // the artifact still counts

    int status = 0;
    pid_t reaped;
    do {
        reaped = ::waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);

    if (reaped != pid) {
        outcome.error = std::string("waitpid: ") + std::strerror(errno);
        return outcome;
    }
    if (WIFSIGNALED(status)) {
        outcome.crashed = true;
        outcome.error = "worker killed by signal " +
                        std::to_string(WTERMSIG(status));
        return outcome;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        outcome.error =
            "worker exited with status " +
            std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        return outcome;
    }
    // A clean exit must still have delivered a complete document: the
    // artifact renderer always terminates with "}\n".
    if (artifact.size() < 2 ||
        artifact.compare(artifact.size() - 2, 2, "}\n") != 0) {
        outcome.error = "worker exited cleanly but delivered a truncated "
                        "artifact (" +
                        std::to_string(artifact.size()) + " bytes)";
        return outcome;
    }

    outcome.ok = true;
    outcome.artifact = std::move(artifact);
    return outcome;
}

} // namespace eip::serve
