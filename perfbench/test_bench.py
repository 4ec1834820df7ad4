#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload.

    python3 perfbench/test_bench.py

For every workload in BENCHMARK.json, and for serve-repeat (which
BENCHMARK.json does not list), in both trace modes, it asserts three
things: the result line has exactly the keys correct, attempted, failed and
metrics; the run is correct; and every metric BENCHMARK.json names for that
mode is printed with its unit and a finite value. It also asserts that
names match [A-Za-z0-9_.-]+. A copy of only BENCHMARK.json and the
benchmark's files, outside a checkout, must exit non-zero without printing
a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script] + args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600
    )


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_benchmark()

    def check_result(self, stdout, expected):
        line = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True, stdout)
        self.assertIsInstance(line["attempted"], int)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        metrics = line["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for m in expected:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return metrics

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def workloads(self):
        # serve-repeat is not listed in BENCHMARK.json (see README.md), but
        # must keep printing every metric too.
        names = [w["name"] for w in self.spec["workloads"]]
        return names if "serve-repeat" in names else names + ["serve-repeat"]

    def test_every_workload_prints_every_metric(self):
        for workload in self.workloads():
            for trace, expected in ((0, self.spec["end_to_end"]), (1, self.spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
                    result = run(args)
                    self.assertEqual(result.returncode, 0, result.stderr)
                    metrics = self.check_result(result.stdout, expected)
                    if trace == 0:
                        self.assertGreater(metrics["setup_s"]["value"], 0)
                        self.assertGreater(metrics["wall_s"]["value"], 0)

    def test_default_seed_matches_the_reference_digests(self):
        for workload in self.workloads():
            with self.subTest(workload=workload):
                result = run(["--workload", workload, "--seconds", "1", "--trace", "0", "--tiny"])
                self.assertEqual(result.returncode, 0, result.stderr)
                self.check_result(result.stdout, self.spec["end_to_end"])

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-", dir=HERE) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in self.spec["paths"]:
                shutil.copytree(
                    os.path.join(ROOT, path),
                    os.path.join(tmp, path),
                    ignore=shutil.ignore_patterns("target", ".selftest-*", "__pycache__"),
                )
            result = run(
                ["--workload", self.spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp,
                script=os.path.join(tmp, "perfbench", "run.py"),
            )
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
