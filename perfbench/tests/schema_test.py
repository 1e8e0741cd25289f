#!/usr/bin/env python3
"""Schema test for perfbench.

Checks that BENCHMARK.json declares every metric with a unit and a
better-direction, that every ratio declares its base, and that the metric
names each workload emits (untraced and traced) equal the declared names,
with the declared units. Runs every workload briefly, so it takes a few
minutes:

    python3 perfbench/tests/schema_test.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seconds=1, seed=1, extra=()):
    """Runs perfbench/run.py once and returns its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_bench()

    def test_every_metric_has_unit_and_direction(self):
        for kind in ("end_to_end", "per_layer"):
            for m in self.bench[kind]:
                self.assertTrue(m["unit"], m["name"])
                self.assertIn(m["better"], ("lower", "higher"), m["name"])

    def test_every_ratio_declares_its_base(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        for m in self.bench["per_layer"]:
            if m["unit"] == "ratio":
                self.assertIn(m["name"] + "_base", names)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class EmittedNamesTest(unittest.TestCase):
    def test_emitted_names_equal_declared(self):
        bench = load_bench()
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in bench[kind]}
                    emitted = {name: v["unit"]
                               for name, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)


if __name__ == "__main__":
    unittest.main()
