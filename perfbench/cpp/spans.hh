/**
 * @file
 * In-memory span recording for the traced run. Spans are opened only by
 * the benchmark's own code, around its calls into the simulator's public
 * functions; nothing inside src/ is instrumented. Every span is kept
 * until the process writes its report.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span. Times are steady-clock nanoseconds. */
struct Span
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1; ///< index of the causing span, -1 for a root
    uint32_t thread = 0; ///< small per-thread id for the trace viewer
};

uint64_t nowNs();

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children's intervals (children may run in
 * parallel on other threads, so overlaps count once).
 */
std::vector<uint64_t> selfTimesNs(const std::vector<Span> &spans);

class SpanRecorder
{
  public:
    /** Open a span under @p parent (-1: the calling thread's innermost
     *  open span). Returns its index. */
    int64_t open(const char *name, int64_t parent = -1);
    void close(int64_t index);

    std::vector<Span> spans() const;

    /** Chrome trace_event JSON ("X" complete events, microseconds). */
    std::string chromeTraceJson() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** The process recorder, or null when the run is untraced. */
SpanRecorder *recorder();
void enableRecorder();

/** RAII span; a no-op when tracing is off. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, int64_t parent = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    int64_t id_ = -1;
};

/** The innermost open span of the calling thread (-1 when none). */
int64_t currentSpan();

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
