#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/test_bench.py

- a short run of every mode emits exactly the metrics BENCHMARK.json
  names, each with its unit;
- the same seed gives the same inputs, another seed other inputs;
- a planted wrong result is caught: the run reports correct=false,
  counts the failure and exits non-zero.
"""

import json
import subprocess
import sys
import unittest

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, seed=1, seconds=0.6, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Metrics(unittest.TestCase):
    def check(self, trace, key):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = run(workload, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                got = {k: m["unit"] for k, m in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class Determinism(unittest.TestCase):
    def digest(self, workload, seed):
        proc = run(workload, "--digest", seed=seed, seconds=10)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout.strip()

    def test_seed_fixes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = self.digest(workload, 7)
                self.assertEqual(a, self.digest(workload, 7))
                self.assertNotEqual(a, self.digest(workload, 8))


class PlantedWrong(unittest.TestCase):
    def test_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, "--plant-wrong")
                self.assertNotEqual(proc.returncode, 0)
                res = result(proc)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)


if __name__ == "__main__":
    unittest.main()
