#!/usr/bin/env python3
"""The benchmark's own test: runs every workload of BENCHMARK.json briefly
(`--short`), untraced and traced, through the benchmark's command, and checks
that each run passes its output checks and prints every metric
BENCHMARK.json names, in its unit.

Run from anywhere:

    python3 perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run(*args):
    command = [sys.executable if SPEC["command"][0] == "python3" else SPEC["command"][0],
               *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)


class ShortRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, table in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    out = run("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", trace, "--short")
                    self.assertEqual(out.returncode, 0, out.stderr[-4000:])
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in table})
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if trace == "0":
                            self.assertGreater(metric["value"], 0, name)

    def test_same_seed_gives_same_outputs(self):
        digests = set()
        for _ in range(2):
            out = run("--workload", "serve_small", "--seed", "11", "--seconds", "1",
                      "--trace", "0", "--short")
            self.assertEqual(out.returncode, 0, out.stderr[-4000:])
            digests.add(next(line for line in out.stdout.splitlines() if "digest" in line))
        self.assertEqual(len(digests), 1)

    def test_fails_without_result_next_to_nothing_but_itself(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "target")))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
