#!/usr/bin/env python3
"""End-to-end checks of the figures program (bench/figures.cc).

Two pairs of views that share cells run alone, together, and at two job
counts: fig12_compression reads 12 of the 36 cells of
fig13_15_entangled_stats, and ext_split_table (whose split arms once
ran outside the matrix) shares its no-prefetch baseline and its
Entangling-2K/4K rows with tab04_energy. The printed tables must not
depend on how views are grouped or how many workers ran them, and the
shared cells must be simulated once. The bench-artifact check must
accept what figures writes and reject an artifact with no tables.

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
FIGURES = None  # set from argv
JOBS = (1, 4)


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


class SharedCells:
    """Mixin: VIEWS run alone and together at each of JOBS; together
    they request CELLS = (requested, unique) cells."""

    VIEWS = ()
    CELLS = (0, 0)

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.alone = {jobs: [run([view], jobs, cls.tmp.name)
                            for view in cls.VIEWS] for jobs in JOBS}
        cls.together = {jobs: run(cls.VIEWS, jobs, cls.tmp.name)
                        for jobs in JOBS}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_together_equals_each_view_alone(self):
        for jobs in JOBS:
            self.assertEqual(tables(self.together[jobs]),
                             "".join(tables(out) for out in self.alone[jobs]))

    def test_job_count_does_not_change_the_tables(self):
        self.assertEqual(tables(self.together[1]), tables(self.together[4]))
        for one, wide in zip(self.alone[1], self.alone[4]):
            self.assertEqual(tables(one), tables(wide))

    def test_shared_cells_run_once(self):
        for jobs in JOBS:
            trailer = self.together[jobs].splitlines()[-1]
            match = re.search(r"cells: (\d+) requested, (\d+) unique",
                              trailer)
            self.assertIsNotNone(match, trailer)
            self.assertEqual((int(match[1]), int(match[2])), self.CELLS)

    def test_one_valid_artifact_per_view(self):
        paths = [os.path.join(self.tmp.name, f"BENCH_{view}.json")
                 for view in self.VIEWS]
        self.assertEqual(sorted(os.listdir(self.tmp.name)),
                         sorted(os.path.basename(p) for p in paths))
        subprocess.run([sys.executable, "-B", VALIDATE, *paths],
                       check=True, capture_output=True)


class CompressionAndEntangledStats(SharedCells, unittest.TestCase):
    VIEWS = ("fig12_compression", "fig13_15_entangled_stats")
    CELLS = (48, 36)


class SplitTableAndEnergy(SharedCells, unittest.TestCase):
    # ext_split_table: none + 5 configs on the 8 cvp(2) workloads;
    # tab04_energy: 8 configs on the same workloads, 3 of them shared.
    VIEWS = ("tab04_energy", "ext_split_table")
    CELLS = (112, 88)


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
        for view in (CompressionAndEntangledStats.VIEWS +
                     SplitTableAndEnergy.VIEWS):
            self.assertIn(view, done.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    FIGURES = os.path.abspath(sys.argv.pop(1))
    unittest.main()
