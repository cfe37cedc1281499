/**
 * @file
 * Deterministic batch scheduler: run a vector of jobs on a few threads
 * and return the results in submission order.
 *
 * One loop serves every worker count: the calling thread and
 * min(workers, jobs) - 1 helper threads each take the next job index
 * from one atomic counter and store the job's result, or the exception
 * it threw, in that index's slot. workers <= 1 is the same loop with no
 * helper thread.
 *
 * Determinism contract: the job function must keep all mutable state
 * job-local (every harness run constructs its own Cpu, Executor and RNG
 * from the job description), so a job's result is a pure function of the
 * job. Under that contract the output vector is bit-identical for any
 * worker count and any completion interleaving — results are placed by
 * submission index, never by completion time.
 *
 * Error contract: every job runs, even after one throws; once all have
 * finished, runBatch rethrows the exception of the lowest-indexed
 * failing job and discards the other results.
 */

#ifndef EIP_EXEC_RUN_BATCH_HH
#define EIP_EXEC_RUN_BATCH_HH

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace eip::exec {

/**
 * As runBatch below, but @p fn also receives the job's submission index.
 * The index is the job's stable identity across worker counts (results
 * are placed by it), which lets callers produce deterministic per-job
 * side artifacts — e.g. `out.json.r004` — no matter which thread ran
 * the job or when it finished.
 */
template <typename Job, typename Fn>
auto
runBatchIndexed(const std::vector<Job> &jobs, unsigned workers, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, const Job &, size_t>>
{
    using Result = std::invoke_result_t<Fn &, const Job &, size_t>;
    std::vector<std::optional<Result>> slots(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (size_t i = next++; i < jobs.size(); i = next++) {
            try {
                slots[i].emplace(fn(jobs[i], i));
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    std::vector<std::thread> helpers;
    size_t threads = std::min<size_t>(std::max(workers, 1u), jobs.size());
    for (size_t t = 1; t < threads; ++t)
        helpers.emplace_back(work);
    work();
    for (std::thread &helper : helpers)
        helper.join();

    std::vector<Result> results;
    results.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
        results.push_back(std::move(*slots[i]));
    }
    return results;
}

/**
 * Run @p fn over every element of @p jobs using @p workers threads, the
 * calling thread included, and return fn's results in submission order.
 * workers <= 1 runs every job on the calling thread.
 *
 * The harness instantiates this with Job = {Workload, RunSpec} pairs;
 * anything copyable-or-referencable works.
 */
template <typename Job, typename Fn>
auto
runBatch(const std::vector<Job> &jobs, unsigned workers, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, const Job &>>
{
    return runBatchIndexed(
        jobs, workers,
        [&fn](const Job &job, size_t) { return fn(job); });
}

} // namespace eip::exec

#endif // EIP_EXEC_RUN_BATCH_HH
