#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from the checkout's sources and
runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest   # unit tests of the arithmetic
    python3 perfbench/run.py --pin        # re-pin every cell digest

Run from the repository root. Build products and traces go to
.bench_build/ (or $CARGO_TARGET_DIR). The last line of standard output
is the JSON result; units come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD = os.path.join(BUILD_ROOT, "perfbench")
OUT = os.path.join(BUILD_ROOT, "out")
PINS = os.path.relpath(os.path.join(HERE, "pinned_digests.txt"), ROOT)
FIXTURE = os.path.relpath(
    os.path.join(HERE, "data", "fixture.champsimtrace.xz"), ROOT)
WORKLOADS = ["detailed-srv", "sampled-trace", "figure-matrix", "serve-storm"]
# Set-up is repeated in this many extra processes; setup_s is the median.
SETUP_REPEATS = 6
RUN_TIMEOUT = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) are missing; nothing to build")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j2"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, target)


def run_binary(binary, args):
    """Run perfbench; return its stdout lines (stderr passes through)."""
    cmd = [os.path.join(".", binary), "--pins", PINS, "--fixture", FIXTURE,
           "--out", OUT] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(cmd))
        sys.exit(1)
    if done.returncode != 0:
        log("exit code", done.returncode, "from", " ".join(cmd))
        sys.exit(1)
    return done.stdout.strip().splitlines()


def units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_tests")
        sys.exit(subprocess.run([os.path.join(".", test)], cwd=ROOT).returncode)
    binary = build("perfbench")
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    if args.pin:
        pins = os.path.join(ROOT, PINS)
        if os.path.exists(pins):
            os.remove(pins)
        for workload in WORKLOADS:
            run_binary(binary, ["--workload", workload, "--pin"])
        return
    if args.workload is None:
        parser.error("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            line = run_binary(binary, common + ["--setup-only"])[-1]
            setups.append(json.loads(line)["setup_s"])
    lines = run_binary(binary, common + ["--trace", str(args.trace)])
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if not args.trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        print(json.dumps({"setup_s_runs": setups}))
    unit_of = units()
    result["metrics"] = {
        name: {"value": value, "unit": unit_of[name]}
        for name, value in sorted(result["metrics"].items())
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
