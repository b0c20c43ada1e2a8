#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through `perfbench/run.py --scale
tiny` on two seeds, untraced and traced, and checks that each run exits
0, passes its correctness checks, and prints every metric BENCHMARK.json
names for its mode, with that metric's unit. Takes about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric_and_passes_its_checks(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for seed in SEEDS:
                for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=w["name"], seed=seed, trace=trace):
                        done = run(w["name"], seed, trace)
                        self.assertEqual(done.returncode, 0,
                                         done.stdout[-2000:] + done.stderr[-2000:])
                        lines = done.stdout.strip().splitlines()
                        result = json.loads(lines[-1])
                        self.assertEqual(set(result),
                                         {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"])
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        for m in spec[section]:
                            got = result["metrics"].get(m["name"])
                            self.assertIsNotNone(got, m["name"])
                            self.assertEqual(got["unit"], m["unit"], m["name"])
                            self.assertIsInstance(got["value"], (int, float), m["name"])
                        self.assertTrue(any(l.startswith("failed_share") for l in lines))

    def test_bare_copy_without_the_library_fails_cleanly(self):
        """In a directory holding only BENCHMARK.json and this package, the
        build fails and no result line is printed."""
        import shutil
        import tempfile
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "out", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve-zipf",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
