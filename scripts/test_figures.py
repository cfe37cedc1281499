#!/usr/bin/env python3
"""End-to-end checks of the figures program (bench/figures.cc).

Two views that share cells — fig12_compression reads 12 of the 36 cells
of fig13_15_entangled_stats — run alone, together, and at two job
counts. The printed tables must not depend on how views are grouped or
how many workers ran them, and the shared cells must be simulated once.
The bench-artifact check must accept what figures writes and reject
an artifact with no tables.

    python3 scripts/test_figures.py build/bench/figures
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
VALIDATE = os.path.join(HERE, "validate_stats_json.py")
EMPTY_TABLES = os.path.join(HERE, os.pardir, "tests", "data",
                            "bench_empty_tables.json")
VIEWS = ("fig12_compression", "fig13_15_entangled_stats")
FIGURES = None  # set from argv


def run(views, jobs, artifact_dir):
    env = dict(os.environ, EIP_SIM_SCALE="0.02", EIP_JOBS=str(jobs),
               EIP_BENCH_ARTIFACT_DIR=artifact_dir)
    return subprocess.run([FIGURES, *views], env=env, check=True,
                          capture_output=True, text=True).stdout


def tables(stdout):
    """@p stdout without what may vary: the closing trailer (and the
    blank line above it) and the banner lines naming the job count."""
    lines = stdout.splitlines(keepends=True)
    assert lines[-1].startswith("[wall-clock"), lines[-1]
    assert lines[-2] == "\n"
    return "".join(line for line in lines[:-2] if "jobs=" not in line)


class SharedCells(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.alone = [run([view], 1, cls.tmp.name) for view in VIEWS]
        cls.together = run(VIEWS, 1, cls.tmp.name)
        cls.wide = run(VIEWS, 4, cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_together_equals_each_view_alone(self):
        self.assertEqual(tables(self.together),
                         "".join(tables(out) for out in self.alone))

    def test_job_count_does_not_change_the_tables(self):
        self.assertEqual(tables(self.together), tables(self.wide))

    def test_shared_cells_run_once(self):
        trailer = self.together.splitlines()[-1]
        match = re.search(r"cells: (\d+) requested, (\d+) unique", trailer)
        self.assertIsNotNone(match, trailer)
        self.assertEqual((int(match[1]), int(match[2])), (48, 36))

    def test_one_valid_artifact_per_view(self):
        paths = [os.path.join(self.tmp.name, f"BENCH_{view}.json")
                 for view in VIEWS]
        self.assertEqual(sorted(os.listdir(self.tmp.name)),
                         sorted(os.path.basename(p) for p in paths))
        subprocess.run([sys.executable, "-B", VALIDATE, *paths],
                       check=True, capture_output=True)


class Validator(unittest.TestCase):
    def test_rejects_an_artifact_without_tables(self):
        done = subprocess.run([sys.executable, "-B", VALIDATE, EMPTY_TABLES],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 1)
        self.assertIn("tables list is empty", done.stderr + done.stdout)


class Arguments(unittest.TestCase):
    def test_unknown_view_exits_2_and_lists_the_views(self):
        done = subprocess.run([FIGURES, "fig99_nothing"],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 2)
        for view in VIEWS:
            self.assertIn(view, done.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    FIGURES = os.path.abspath(sys.argv.pop(1))
    unittest.main()
