#!/usr/bin/env python3
"""Compares two sets of benchmark reports (the JSON files run.py writes under
.bench_build/perfbench/reports).

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [...]

Each side is one workload, run several times (one report per seed). The
script refuses to compare reports from different build types, hardware-thread
counts, workloads, traced/untraced or smoke/full runs, and reports that failed
their own checks. For every metric it prints both medians, the change, and
whether the new median is worse than the base by more than the bound
BENCHMARK.json fixes (end-to-end metrics only).
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    reports = []
    for p in paths:
        with open(p) as f:
            reports.append(json.load(f))
    return reports


def key(report):
    m = report["meta"]
    return (m["build_type"], m["hardware_threads"], m["workload"], m["trace"],
            m["smoke"])


def refuse(msg):
    print("compare: refused: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        refuse("each side needs at least one report")
    keys = {key(r) for r in base + new}
    if len(keys) != 1:
        names = ("build_type", "hardware_threads", "workload", "trace", "smoke")
        diff = [n for i, n in enumerate(names) if len({k[i] for k in keys}) > 1]
        refuse("reports differ in " + ", ".join(diff))
    bad = [r["meta"]["seed"] for r in base + new if not r["correct"]]
    if bad:
        refuse("reports with failed checks (seeds %s)" % bad)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    section = "per_layer" if base[0]["meta"]["trace"] else "end_to_end"
    print("%-34s %14s %14s %9s" % ("metric", "base median", "new median", "change"))
    worse = []
    for name in base[0][section]:
        b = statistics.median(r[section][name]["value"] for r in base)
        n = statistics.median(r[section][name]["value"] for r in new)
        change = (n - b) / abs(b) if b else float("nan")
        flag = ""
        if name in bounds:
            better, bound = bounds[name]
            loss = change if better == "lower" else -change
            if loss > bound:
                flag = "  worse than bound %.2f" % bound
                worse.append(name)
        print("%-34s %14.6g %14.6g %+8.1f%%%s" % (name, b, n, 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
