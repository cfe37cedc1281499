/**
 * @file
 * Canonical serialization of the simulation request — SimConfig and
 * RunSpec — and the content address built from it. Together with the
 * workload identity (exec/canonical.hh) and the build's git describe,
 * the canonical strings pin everything an eip-run/v1 artifact's bytes
 * depend on, so their hash is a valid cross-process cache key: equal
 * keys ⇒ byte-identical artifacts (the determinism contract of
 * exec::runBatch, extended across processes).
 *
 * Deliberately conservative: a knob enters the key even where it
 * could be proven result-inert, so a key can never alias two requests the artifact schema could ever
 * distinguish. Collapsing inert knobs would be a pure hit-rate
 * optimization and needs an allow-list argument, not a serializer
 * change.
 */

#ifndef EIP_HARNESS_CANONICAL_HH
#define EIP_HARNESS_CANONICAL_HH

#include <string>

#include "harness/runner.hh"
#include "sim/config.hh"
#include "trace/workloads.hh"

namespace eip::harness {

/** @p cfg as one-line canonical JSON (fixed key order, %.17g doubles,
 *  nested cache levels in hierarchy order). */
std::string canonicalSimConfig(const sim::SimConfig &cfg);

/** @p spec as canonical JSON. The tracer is excluded: it is a pure
 *  observer (results are identical with and without it) and a
 *  single-run facility the serve protocol does not expose. */
std::string canonicalRunSpec(const RunSpec &spec);

/** Workload identity: name, category and the canonical generator and
 *  executor configs. Trace-backed workloads additionally carry their
 *  kind, byte count, and content digest (never the path — two different
 *  traces at one path must not alias, and one trace at two paths
 *  should). */
std::string canonicalWorkload(const trace::Workload &workload);

/**
 * Content address of one run request: a 16-hex-digit FNV-1a digest of
 * (git describe, canonical SimConfig baseline, canonical RunSpec,
 * canonical workload). The serve result cache keys on it.
 */
std::string resultCacheKey(const std::string &git_describe,
                           const sim::SimConfig &cfg, const RunSpec &spec,
                           const trace::Workload &workload);

} // namespace eip::harness

#endif // EIP_HARNESS_CANONICAL_HH
