#!/usr/bin/env python3
"""The benchmark's own test: smoke runs of every workload, traced and not.

    python3 perfbench/test_perfbench.py

Checks that each run prints the result object with every metric
BENCHMARK.json names (with its unit), that the program's answers were right
(failed == 0, so fail_frac == 0), that serve-ingest's ops_per_s is the
achieved read rate rather than the offered one, that run.py refuses to run
without the library sources, and that compare.py refuses mismatched
provenance. Writes only under .bench_build/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-test")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT, seed=5, extra=()):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"] + list(extra), cwd=cwd, capture_output=True, text=True,
        timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            for m in want:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        report = os.path.join(ROOT, ".bench_build", "perfbench", "reports",
                              "%s-seed5-trace%d-smoke.json" % (workload, trace))
        with open(report) as f:
            full = json.load(f)
        self.assertEqual(full["fail_frac"], 0)
        self.assertEqual(full["meta"]["build_type"], "Release")

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


class OverloadTest(unittest.TestCase):
    def test_ops_per_s_is_the_achieved_rate(self):
        # Offered far beyond what the service answers, each slice ends with
        # reads still queued; their answers arrive after the slice and must
        # not count, so the figure falls well below the offered rate.
        rate = 30000
        done = run("serve-ingest", 0, seed=6, extra=("--read-rate", str(rate)))
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertLess(result["metrics"]["ops_per_s"]["value"], 0.5 * rate)


class GuardTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        lone = os.path.join(SCRATCH, "lone")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("serve-search", 0, cwd=lone)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")
        shutil.rmtree(lone)

    def test_compare_refuses_mismatched_hosts(self):
        os.makedirs(SCRATCH, exist_ok=True)
        paths = []
        for i, threads in enumerate((4, 8)):
            report = {"meta": {"build_type": "Release", "hardware_threads": threads,
                               "workload": "serve-search", "trace": False,
                               "smoke": False, "seed": i},
                      "correct": True, "end_to_end": {}}
            paths.append(os.path.join(SCRATCH, "r%d.json" % i))
            with open(paths[-1], "w") as f:
                json.dump(report, f)
        done = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                               paths[0], "--", paths[1]],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 2)
        self.assertIn("hardware_threads", done.stderr)


if __name__ == "__main__":
    unittest.main()
