#!/usr/bin/env python3
"""Speed gate: the repository benchmark on BASE_REV against the working tree.

    python3 scripts/bench_gate.py BASE_REV

Checks BASE_REV out into a temporary git worktree (removed on exit) and
builds both arms with their own perfbench/run.py, each in its own
CARGO_TARGET_DIR. For every workload in BENCHMARK.json it runs three
interleaved base/head pairs of run_seconds each, alternating which arm
goes first; pair i runs --seed i+1 on both arms. Then one --trace 1 run
per arm and workload feeds a per-layer report.

Exit 1 when, on some workload,
  - an end-to-end metric of head is worse than base beyond its bound
    (in its "better" direction) in at least two of the three pairs, or
  - a head run is "correct": false, or head's share of failed
    operations exceeds base's.
EIP_BENCH_REGRESS_OK=1 acknowledges an intended regression: the report
still prints, the exit is 0. The per-layer report never gates: layer
costs come from subtracting whole runs and are noisy. Exit 2 on a usage
error, a failed build or a BASE_REV without perfbench/.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

PAIRS = 3
RUN_TIMEOUT = 900
BUILD_TIMEOUT = 1800


class GateError(Exception):
    """A condition that leaves nothing to compare (exit 2)."""


def parse_result(stdout):
    """The JSON result a run.py call prints as its last line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def value(result, name):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def worse_by(metric, base, head):
    """How much worse head is than base, as a fraction of base, in the
    metric's "better" direction; negative when head is better."""
    if base == head:
        return 0.0
    if base == 0:
        change = math.copysign(math.inf, head - base)
    else:
        change = (head - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def failed_share(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    return sum(r.get("failed", 0) for r in results) / attempted if attempted else 0.0


def judge(spec, pairs):
    """Failure messages for {workload: [(base, head), ...]}; a head run
    that printed no result is None."""
    failures = []
    for workload, runs in pairs.items():
        heads = [head for _, head in runs]
        if any(head is None for head in heads):
            failures.append(f"{workload}: a head run printed no result")
            continue
        if not all(head.get("correct") for head in heads):
            failures.append(f'{workload}: a head run is "correct": false')
        base_share = failed_share([base for base, _ in runs])
        head_share = failed_share(heads)
        if head_share > base_share:
            failures.append(f"{workload}: head failed {head_share:.3%} of "
                            f"operations, base {base_share:.3%}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            deltas = []
            for base, head in runs:
                b, h = value(base, name), value(head, name)
                if b is not None and h is not None:
                    deltas.append(worse_by(metric, b, h))
            beyond = sum(d > metric["bound"] for d in deltas)
            if beyond > PAIRS // 2:
                shown = ", ".join(f"{d:+.1%}" for d in deltas)
                failures.append(
                    f"{workload} {name}: worse beyond its bound "
                    f"{metric['bound']:.0%} in {beyond} of {len(deltas)} "
                    f"pairs ({shown})")
    return failures


def layer_report(spec, base, head):
    """Rows (metric, base, head, worse_by) of the per-layer metrics both
    traced runs report, the most worsened first."""
    rows = []
    for metric in spec["per_layer"]:
        b, h = value(base, metric["name"]), value(head, metric["name"])
        if b is not None and h is not None:
            rows.append((metric["name"], b, h, worse_by(metric, b, h)))
    return sorted(rows, key=lambda row: row[3], reverse=True)


def exit_code(failures, env=os.environ):
    if not failures:
        return 0
    return 0 if env.get("EIP_BENCH_REGRESS_OK") == "1" else 1


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True)


class Arm:
    """One checkout, built and run through its own perfbench/run.py."""

    def __init__(self, name, root, target):
        self.name, self.root = name, root
        self.env = dict(os.environ, CARGO_TARGET_DIR=target)

    def build(self):
        return subprocess.Popen(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, 'perfbench'); import run; "
             "run.build('perfbench')"],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)

    def run(self, workload, seed, seconds, trace):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        try:
            done = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"{self.name}: {workload} seed {seed} timed out",
                  file=sys.stderr)
            return None
        result = parse_result(done.stdout)
        if done.returncode != 0 or result is None:
            print(f"{self.name}: {workload} seed {seed} exited "
                  f"{done.returncode}:\n{done.stderr[-2000:]}", file=sys.stderr)
            return None
        return result


def measure(spec, base, head):
    pairs, traced = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs[workload] = []
        for i in range(PAIRS):
            order = (base, head) if i % 2 == 0 else (head, base)
            got = {arm.name: arm.run(workload, i + 1, spec["run_seconds"], 0)
                   for arm in order}
            if got["base"] is None:
                raise GateError(f"base run of {workload} failed")
            pairs[workload].append((got["base"], got["head"]))
            print(f"{workload} pair {i + 1}: done", flush=True)
        traced[workload] = tuple(
            arm.run(workload, 1, spec["run_seconds"], 1) for arm in (base, head))
    return pairs, traced


def print_pairs(spec, pairs):
    for workload, runs in pairs.items():
        print(f"\n== {workload}: end to end, base -> head per pair")
        for metric in spec["end_to_end"]:
            cells = []
            for base, head in runs:
                b = value(base, metric["name"])
                h = None if head is None else value(head, metric["name"])
                if b is None or h is None:
                    cells.append("n/a")
                else:
                    cells.append(f"{b:.4g} -> {h:.4g} "
                                 f"({worse_by(metric, b, h):+.1%} worse)")
            print(f"  {metric['name']:<15} {metric['bound']:>4.0%}  "
                  + " | ".join(cells))


def print_layers(spec, traced):
    for workload, (base, head) in traced.items():
        print(f"\n== {workload}: per layer, --trace 1 (informational)")
        if base is None or head is None:
            print("  a traced run failed; no layer report")
            continue
        for name, b, h, worse in layer_report(spec, base, head):
            mark = "worse" if worse > 0 else ""
            print(f"  {name:<34} {b:>10.4g} -> {h:<10.4g} "
                  f"{worse:>+8.1%}  {mark}")


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    head_root = git(os.getcwd(), "rev-parse", "--show-toplevel").stdout.strip()
    if not head_root:
        print("bench_gate: not inside a git checkout", file=sys.stderr)
        return 2
    rev = git(head_root, "rev-parse", "--verify", "--quiet",
              argv[1] + "^{commit}").stdout.strip()
    if not rev:
        print(f"bench_gate: unknown revision {argv[1]}", file=sys.stderr)
        return 2
    with open(os.path.join(head_root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # A cancelled job still removes the worktree on its way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    scratch = tempfile.mkdtemp(prefix="bench-gate-")
    base_root = os.path.join(scratch, "base")
    added = False
    try:
        added = git(head_root, "worktree", "add", "--detach", base_root,
                    rev).returncode == 0
        if not added:
            raise GateError(f"cannot check out {rev} into a worktree")
        if not os.path.isfile(os.path.join(base_root, "perfbench", "run.py")):
            raise GateError(f"{argv[1]} has no perfbench/run.py")
        base = Arm("base", base_root, os.path.join(scratch, "base-build"))
        head = Arm("head", head_root, os.path.join(scratch, "head-build"))
        print(f"bench_gate: base {rev[:12]} ({argv[1]}) against the working "
              f"tree at {head_root}", flush=True)
        builds = [(arm, arm.build()) for arm in (base, head)]
        try:
            for arm, proc in builds:
                _, err = proc.communicate(timeout=BUILD_TIMEOUT)
                if proc.returncode != 0:
                    raise GateError(f"{arm.name} build failed:\n{err[-4000:]}")
        except subprocess.TimeoutExpired:
            raise GateError("a build timed out")
        finally:
            for _, proc in builds:
                proc.kill()

        pairs, traced = measure(spec, base, head)
        print_pairs(spec, pairs)
        print_layers(spec, traced)
        failures = judge(spec, pairs)
        print()
        for failure in failures:
            print("REGRESSION:", failure)
        code = exit_code(failures)
        if failures and code == 0:
            print("EIP_BENCH_REGRESS_OK=1: regressions acknowledged")
        elif not failures:
            print("bench_gate: no end-to-end regression beyond its bound")
        return code
    except GateError as e:
        print(f"bench_gate: {e}", file=sys.stderr)
        return 2
    finally:
        if added:
            git(head_root, "worktree", "remove", "--force", base_root)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
