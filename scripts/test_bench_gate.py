#!/usr/bin/env python3
"""Unit tests of bench_gate.py's decision rule and layer report, fed
synthetic perfbench result lines.

    python3 scripts/test_bench_gate.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "host_mips", "better": "higher", "bound": 0.25},
        {"name": "hit_p50_ms", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "trace.next_ns_per_inst", "better": "lower"},
        {"name": "prefetch.entangling_ns_per_inst", "better": "lower"},
        {"name": "serve.hit_ratio", "better": "higher"},
        {"name": "core.table_lookup_ns", "better": "lower"},
    ],
}


def result(correct=True, attempted=100, failed=0, **metrics):
    """A run.py result as printed: chatter, then the JSON line."""
    line = json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": "u"}
                    for name, v in metrics.items()},
    })
    parsed = bench_gate.parse_result("steadiness: ...\n" + line + "\n")
    assert parsed is not None
    return parsed


BASE = dict(host_mips=100.0, hit_p50_ms=4.0)


def pairs(*heads, base=None):
    return {"w": [(base or result(**BASE), head) for head in heads]}


class Bounds(unittest.TestCase):
    def test_lower_better_at_bound_passes(self):
        head = result(host_mips=100.0, hit_p50_ms=5.0)
        self.assertEqual(bench_gate.judge(SPEC, pairs(head, head, head)), [])

    def test_lower_better_beyond_bound_fails(self):
        head = result(host_mips=100.0, hit_p50_ms=5.0001)
        failures = bench_gate.judge(SPEC, pairs(head, head, head))
        self.assertEqual(len(failures), 1)
        self.assertIn("w hit_p50_ms", failures[0])
        self.assertIn("3 of 3", failures[0])

    def test_higher_better_at_bound_passes(self):
        head = result(host_mips=75.0, hit_p50_ms=4.0)
        self.assertEqual(bench_gate.judge(SPEC, pairs(head, head, head)), [])

    def test_higher_better_beyond_bound_fails(self):
        head = result(host_mips=74.99, hit_p50_ms=4.0)
        failures = bench_gate.judge(SPEC, pairs(head, head, head))
        self.assertEqual(len(failures), 1)
        self.assertIn("w host_mips", failures[0])

    def test_improvement_never_fails(self):
        head = result(host_mips=1000.0, hit_p50_ms=0.1)
        self.assertEqual(bench_gate.judge(SPEC, pairs(head, head, head)), [])


class Majority(unittest.TestCase):
    slow = result(host_mips=50.0, hit_p50_ms=4.0)
    same = result(**BASE)

    def test_one_of_three_pairs_passes(self):
        got = bench_gate.judge(SPEC, pairs(self.same, self.slow, self.same))
        self.assertEqual(got, [])

    def test_two_of_three_pairs_fails(self):
        got = bench_gate.judge(SPEC, pairs(self.slow, self.same, self.slow))
        self.assertEqual(len(got), 1)
        self.assertIn("2 of 3", got[0])


class Correctness(unittest.TestCase):
    def test_head_incorrect_fails(self):
        bad = result(correct=False, **BASE)
        got = bench_gate.judge(SPEC, pairs(result(**BASE), bad, result(**BASE)))
        self.assertEqual(len(got), 1)
        self.assertIn('"correct": false', got[0])

    def test_head_higher_failed_share_fails(self):
        base = result(attempted=100, failed=1, **BASE)
        head = result(attempted=100, failed=2, **BASE)
        got = bench_gate.judge(SPEC, pairs(head, head, head, base=base))
        self.assertEqual(len(got), 1)
        self.assertIn("failed", got[0])

    def test_equal_failed_share_passes(self):
        base = result(attempted=100, failed=1, **BASE)
        head = result(attempted=200, failed=2, **BASE)
        self.assertEqual(
            bench_gate.judge(SPEC, pairs(head, head, head, base=base)), [])

    def test_head_without_result_fails(self):
        got = bench_gate.judge(SPEC, pairs(result(**BASE), None, result(**BASE)))
        self.assertEqual(len(got), 1)

    def test_unparsable_output_is_no_result(self):
        self.assertIsNone(bench_gate.parse_result(""))
        self.assertIsNone(bench_gate.parse_result("perfbench: crashed\n"))


class RegressOk(unittest.TestCase):
    def test_acknowledged_regression_exits_zero(self):
        failures = ["w host_mips: worse"]
        self.assertEqual(bench_gate.exit_code(failures, {}), 1)
        self.assertEqual(bench_gate.exit_code(
            failures, {"EIP_BENCH_REGRESS_OK": "1"}), 0)
        self.assertEqual(bench_gate.exit_code(
            failures, {"EIP_BENCH_REGRESS_OK": "0"}), 1)
        self.assertEqual(bench_gate.exit_code([], {}), 0)


class LayerReport(unittest.TestCase):
    def test_most_worsened_first_in_each_direction(self):
        base = result(**{"trace.next_ns_per_inst": 20.0,
                         "prefetch.entangling_ns_per_inst": 50.0,
                         "serve.hit_ratio": 0.8,
                         "core.table_lookup_ns": 20.0})
        head = result(**{"trace.next_ns_per_inst": 18.0,       # -10%
                         "prefetch.entangling_ns_per_inst": 100.0,  # +100%
                         "serve.hit_ratio": 0.6,               # +25% worse
                         "core.table_lookup_ns": 20.0})        # 0
        rows = bench_gate.layer_report(SPEC, base, head)
        self.assertEqual([r[0] for r in rows],
                         ["prefetch.entangling_ns_per_inst", "serve.hit_ratio",
                          "core.table_lookup_ns", "trace.next_ns_per_inst"])
        self.assertAlmostEqual(rows[0][3], 1.0)
        self.assertAlmostEqual(rows[1][3], 0.25)
        self.assertAlmostEqual(rows[-1][3], -0.1)

    def test_metrics_missing_from_an_arm_are_left_out(self):
        base = result(**{"trace.next_ns_per_inst": 20.0})
        head = result(**{"trace.next_ns_per_inst": 20.0,
                         "core.table_lookup_ns": 9.0})
        rows = bench_gate.layer_report(SPEC, base, head)
        self.assertEqual([r[0] for r in rows], ["trace.next_ns_per_inst"])


if __name__ == "__main__":
    unittest.main()
