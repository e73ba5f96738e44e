#!/usr/bin/env python3
"""Builds and runs the repository benchmark (dita_perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-search --seed 1 --seconds 10 --trace 0

Workloads: serve-search, serve-ingest, batch-join. The last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}; --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones, each checked
against BENCHMARK.json, the one list of metric names and units. The full report
(provenance, config, details) is written under .bench_build/perfbench/reports
and the traced run's spans under .bench_build/perfbench/traces.

The first run configures and builds the DITA libraries plus the benchmark program with
CMake (Release) into .bench_build/perfbench; later runs rebuild only what
changed. Add --smoke for the few-second variant the benchmark's own test uses;
--read-rate overrides serve-ingest's offered read rate (the test uses it to
overload the service).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cmake", "dita_perfbench")
WORKLOADS = ("serve-search", "serve-ingest", "batch-join")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the library and benchmark sources: provenance that works
    in a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("DITA sources (src/) not found next to perfbench/; run from a "
             "full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "cmake", "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", os.path.join(BUILD, "cmake"),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", os.path.join(BUILD, "cmake"),
                      "--target", "dita_perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd), 1)


def check_metrics(result, trace):
    """Holds the result line to BENCHMARK.json: a metric that is missing,
    unknown, in another unit or not a finite number fails the run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the metric list in BENCHMARK.json: %s" % e)
    got = result["metrics"]
    known = {m["name"] for m in spec}
    problems = ["unknown metric " + n for n in got if n not in known]
    ordered = {}
    for m in spec:
        v = got.get(m["name"])
        if v is None:
            problems.append("metric %s was not measured" % m["name"])
            continue
        if v.get("unit") != m["unit"]:
            problems.append("metric %s has unit %s, not %s"
                            % (m["name"], v.get("unit"), m["unit"]))
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append("metric %s is not a finite number" % m["name"])
            continue
        ordered[m["name"]] = v
    result["metrics"] = ordered
    if problems:
        for p in problems:
            print("perfbench: problem: " + p, file=sys.stderr)
        result["correct"] = False
        result["failed"] += len(problems)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--read-rate", type=float)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.read_rate is not None and args.read_rate <= 0:
        fail("--read-rate must be positive")

    build()
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    reports = os.path.join(BUILD, "reports")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(reports, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    sha = git_sha() or "src-" + source_digest()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--report", os.path.join(reports, tag + ".json"),
           "--git-sha", sha]
    if args.trace:
        cmd += ["--spans", os.path.join(traces, tag + ".json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.read_rate is not None:
        cmd += ["--read-rate", repr(args.read_rate)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("dita_perfbench did not finish within %d s" % RUN_TIMEOUT_S, 1)
    if done.returncode != 0:
        fail("dita_perfbench exited with code %d" % done.returncode, 1)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        fail("dita_perfbench printed no result", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("dita_perfbench printed no result object", 1)
    print(json.dumps(check_metrics(result, args.trace)))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
