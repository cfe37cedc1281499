/**
 * @file
 * Parallelism degree of the experiment engine. One knob, resolved in
 * priority order: an explicit request (e.g. the eipsim --jobs flag), the
 * EIP_JOBS environment variable, then std::thread::hardware_concurrency().
 * A value of 1 runs every job on the calling thread; 0 means "auto".
 */

#ifndef EIP_EXEC_JOBS_HH
#define EIP_EXEC_JOBS_HH

namespace eip::exec {

/**
 * Worker count from EIP_JOBS (strictly validated; garbage is a fatal
 * user error), falling back to hardware_concurrency(). Always >= 1;
 * EIP_JOBS=0 or an unset variable selects the hardware default.
 */
unsigned defaultJobs();

/** @p requested when > 0, otherwise defaultJobs(). */
unsigned resolveJobs(unsigned requested);

} // namespace eip::exec

#endif // EIP_EXEC_JOBS_HH
