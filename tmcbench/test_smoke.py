#!/usr/bin/env python3
"""Smoke test for the tmcsim benchmark.

Runs every workload of BENCHMARK.json once per trace mode in smoke mode
(tiny sizes, one-second measuring window) and checks the result line: the
checks passed, and the metrics are exactly the ones BENCHMARK.json names for
that mode, each with its unit and a finite value. Also validates
BENCHMARK.json's own shape.

usage (from the repository root):  python3 tmcbench/test_smoke.py
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkSpec(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class SmokeRuns(unittest.TestCase):
    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_and_mode(self):
        spec = load_spec()
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_workload(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in spec[group]}
                    got = result["metrics"]
                    self.assertEqual(set(got), set(expected))
                    for name, metric in got.items():
                        self.assertEqual(metric["unit"], expected[name], name)
                        value = metric["value"]
                        self.assertIsInstance(value, (int, float), name)
                        self.assertTrue(math.isfinite(value), name)
                        if group == "end_to_end":
                            self.assertGreater(value, 0, name)


if __name__ == "__main__":
    unittest.main()
