"""Smoke test of the benchmark itself, at a tiny size (well under a minute).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

TINY = 0.005


class SmokeTest(unittest.TestCase):
    def measure(self, name, trace):
        return run.measure(name, None, 0.05, trace, scale=TINY, setup_repeats=1)

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, lines = self.measure(name, trace)
                    self.assertTrue(result["correct"], lines)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in run.load_spec()[kind]}
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    for line in ("checks passed", "output digest = "):
                        self.assertTrue(any(s.startswith(line) for s in lines), lines)

    def test_theta_outside_the_box_fails_the_run(self):
        # pool workers fork after the patch, so the grid is caught there too
        original = workloads.bench.run_replication

        def shifted(*args):
            result = original(*args)
            return dataclasses.replace(result, theta_final=result.theta_final + 1.0)

        for name in ("sf2-mg1-4d", "grid-mg1-20d"):
            with self.subTest(workload=name):
                workloads.bench.run_replication = shifted
                try:
                    result, lines = self.measure(name, 0)
                finally:
                    workloads.bench.run_replication = original
                self.assertFalse(result["correct"])
                self.assertTrue(any("outside the box" in s for s in lines), lines)

    def test_fails_without_the_program(self):
        # a checkout holding only the benchmark's own files
        here = Path(__file__).resolve().parent
        root = Path(tempfile.mkdtemp(prefix=".work-", dir=here))
        try:
            shutil.copy(workloads.ROOT / "BENCHMARK.json", root)
            shutil.copytree(
                here, root / here.name, ignore=shutil.ignore_patterns(".work-*", "__pycache__")
            )
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sf2-quad-20d", "--seconds", "1"],
                cwd=root, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(root)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
