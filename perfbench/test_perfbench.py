#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They build the driver (as run.py does), run its C++ self-tests — the
percentile rule, metric names, the reference kernel, the seeded flow
layout and the DmaApi decorator's digest equality — and check that
BENCHMARK.json lists exactly the driver's workloads and metrics.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def driver(*args):
    return subprocess.run([run.BINARY, *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_selftests_pass(self):
        out = subprocess.run([run.BINARY, "--selftest"], text=True,
                             stdout=subprocess.PIPE)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_spec_has_exactly_the_contract_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertEqual(self.spec["command"],
                         ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_workloads_match_the_driver(self):
        names = driver("--list-workloads").split()
        self.assertEqual([w["name"] for w in self.spec["workloads"]], names)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_metrics_match_the_driver(self):
        listed = {"end_to_end": [], "per_layer": []}
        for line in driver("--list-metrics").splitlines():
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        for kind, defs in listed.items():
            self.assertEqual([(m["name"], m["unit"])
                              for m in self.spec[kind]], defs)
        seen = set()
        for kind in listed:
            for m in self.spec[kind]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])

    def test_bounds(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_digests_recorded_for_every_workload(self):
        digests = run.load_digests()
        self.assertEqual(sorted(digests),
                         sorted(w["name"] for w in self.spec["workloads"]))
        for by_seed in digests.values():
            self.assertIn(str(run.DEFAULT_SEED), by_seed)
            for seed, digest in by_seed.items():
                self.assertRegex(seed, r"\A[0-9]+\Z")
                self.assertRegex(digest, r"\A[0-9a-f]{16}\Z")

    def test_default_seed_digest_is_checked_at_any_seed(self):
        # A seed without a recorded digest is still checked through the
        # untimed default-seed repetition.
        res = json.loads(driver(
            "--workload", "netperf_bidi_strict", "--seed", "1000",
            "--seconds", "0.01", "--trace", "0",
            "--default-digest", "0000000000000000").splitlines()[-1])
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn("default-seed digest differs from the recorded one",
                      res["errors"])

    def test_fails_without_the_sources(self):
        # A tree holding only BENCHMARK.json and the benchmark must
        # exit non-zero without printing a result.
        tree = os.path.join(run.BUILD_ROOT, "isolated")
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
        shutil.copytree(BENCH_DIR, os.path.join(tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "netperf_bidi_strict", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=tree, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)
        shutil.rmtree(tree, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
