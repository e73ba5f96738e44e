#!/usr/bin/env python3
"""Validate BENCH_*.json and serving-observability JSON exports.

Two layers, both stdlib-only so CI needs nothing installed (shared
helpers live in bench_json_common.py, which obs_report.py reuses):

1. Schema: the JSON must contain every required key path for its kind with
   the right primitive type. A bench binary that bit-rots its emitter (or a
   hand-edited baseline) fails fast here. The ``flight`` kind additionally
   checks every request record's phase breakdown telescopes to its total
   latency, and ``metrics`` checks the serving metric families are present.

2. Tolerance-gated diff vs a committed baseline (optional): throughput-like
   metrics may not regress below ``1 - tolerance`` of the baseline value,
   and correctness counters (wrong_answers) must be exactly zero. The
   default tolerance is deliberately loose — the smoke pass runs the
   benches in --quick mode on whatever loaded machine CI gives us, so only
   collapse-sized regressions (half the baseline throughput) should gate.
   Numbers from different builds or hosts are not comparable: when the two
   files differ in ``meta.build_type`` or ``meta.hardware_threads`` the diff
   is refused with exit status 2, naming the field (perfbench/compare.py
   refuses the same way).

Usage:
  check_bench_json.py micro_filter <json> [--baseline <json>] [--tolerance F]
  check_bench_json.py serving     <json> [--baseline <json>] [--tolerance F]
  check_bench_json.py flight      <json>     # DumpFlightRecorder() export
  check_bench_json.py metrics     <json>     # MetricsToJson() export
"""

import argparse
import sys

from bench_json_common import (
    NUM,
    check_phase_telescoping,
    check_record_list,
    check_schema,
    load_json,
    lookup,
)

# Quantile bounds every latency rollup carries.
_QUANTS = ["count", "p50", "p95", "p99", "p999"]


# Required key paths per kind: (path, type). Paths are dotted.
SCHEMAS = {
    "micro_filter": [
        ("meta.build_type", str),
        ("meta.hardware_threads", NUM),
        ("trie_collect_ns_per_query.accumulate.tau_tight", NUM),
        ("trie_collect_ns_per_query.accumulate.tau_mid", NUM),
        ("trie_collect_ns_per_query.accumulate.tau_wide", NUM),
        ("trie_collect_ns_per_query.max.tau_mid", NUM),
        ("trie_collect_ns_per_query.edit.budget4", NUM),
        ("trie_collect_queries_per_sec", NUM),
        ("rtree_probe_ns_per_query.within", NUM),
        ("rtree_probe_ns_per_query.intersect", NUM),
        ("index_build.trie_build_ms_4096", NUM),
        ("index_build.trie_build_traj_per_sec", NUM),
        ("index_build.partition_ms_16384", NUM),
        ("cell_bound.dtw_ns_per_pair.no_abandon", NUM),
        ("cell_bound.dtw_ns_per_pair.abandon_tau", NUM),
        ("cell_bound.frechet_ns_per_pair.no_abandon", NUM),
        ("cell_bound.frechet_ns_per_pair.abandon_tau", NUM),
        ("cell_bound.dtw_abandon_speedup", NUM),
        ("cell_bound.frechet_abandon_speedup", NUM),
    ],
    "serving": [
        ("meta.build_type", str),
        ("meta.sanitize", str),
        ("meta.native", str),
        ("meta.timestamp_utc", str),
        ("workload.scale", NUM),
        ("workload.workers", NUM),
        ("cache.off_qps", NUM),
        ("cache.on_qps", NUM),
        ("cache.gain", NUM),
        ("cache.hits", NUM),
        ("cache.misses", NUM),
        ("cache.invalidations", NUM),
        ("cache.wrong_answers", NUM),
        ("obs_overhead.off_qps", NUM),
        ("obs_overhead.on_qps", NUM),
        ("obs_overhead.overhead_pct", NUM),
        ("obs_overhead.wrong_answers", NUM),
    ],
    # DitaService::DumpFlightRecorder(): service rollup + request ring.
    "flight": [
        ("service.uptime_seconds", NUM),
        ("service.queries", NUM),
        ("service.queries_search", NUM),
        ("service.queries_join", NUM),
        ("service.queries_knn", NUM),
        ("service.shed", NUM),
        ("service.degraded", NUM),
        ("service.errors", NUM),
        ("service.cache_hits", NUM),
        ("service.cache_misses", NUM),
        ("service.inserts", NUM),
        ("service.deletes", NUM),
        ("service.merges", NUM),
        ("service.merge_busy_seconds", NUM),
        ("service.recorded", NUM),
        ("service.capacity", NUM),
    ]
    + [
        (f"service.latency.{kind}.{q}", NUM)
        for kind in ("search", "join", "knn", "queue_wait", "admission_wait")
        for q in _QUANTS
    ],
}

# Fields every flight-recorder request record must carry.
FLIGHT_RECORD_FIELDS = [
    ("id", NUM),
    ("kind", str),
    ("status_code", NUM),
    ("stop_cause", str),
    ("cache_hit", bool),
    ("degraded", bool),
    ("shed", bool),
    ("async", bool),
    ("results", NUM),
    ("epoch", NUM),
    ("version", NUM),
    ("arrival_seconds", NUM),
    ("queue_seconds", NUM),
    ("admission_seconds", NUM),
    ("cache_seconds", NUM),
    ("pin_seconds", NUM),
    ("base_seconds", NUM),
    ("delta_seconds", NUM),
    ("finalize_seconds", NUM),
    ("total_seconds", NUM),
    ("merge_overlap_seconds", NUM),
]

# Metric families a serving workload with metrics enabled must register
# (names contain dots, so they are checked by direct membership, not by
# dotted-path lookup).
METRICS_REQUIRED_HISTOGRAMS = [
    "serving.latency.search_seconds",
    "serving.queue_wait_seconds",
]
METRICS_REQUIRED_GAUGES = [
    "serving.queue.depth",
    "serving.pinned_snapshots",
    "serving.delta.bytes",
    "serving.merge.backlog",
]
METRICS_REQUIRED_COUNTERS = ["serving.queries"]

# Higher-is-better metrics gated against the baseline. Latency-style
# numbers are skipped: quick mode shrinks windows, which legitimately
# shifts tail latencies.
THROUGHPUT_KEYS = {
    "micro_filter": [
        "trie_collect_queries_per_sec",
        "cell_bound.dtw_abandon_speedup",
        "cell_bound.frechet_abandon_speedup",
    ],
    # The cache gain is a ratio of two closed-loop runs on the same
    # machine, so it gates.
    "serving": ["cache.gain"],
    "flight": [],
    "metrics": [],
}

# Counters that must be exactly zero in the candidate.
ZERO_KEYS = {
    "micro_filter": [],
    "serving": ["cache.wrong_answers", "obs_overhead.wrong_answers"],
    "flight": [],
    "metrics": [],
}


def check_metrics_export(doc):
    errors = []
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            errors.append(f"missing or non-object section: {section}")
    if errors:
        return errors
    for name in METRICS_REQUIRED_COUNTERS:
        if name not in doc["counters"]:
            errors.append(f"missing counter: {name}")
    for name in METRICS_REQUIRED_GAUGES:
        if name not in doc["gauges"]:
            errors.append(f"missing gauge: {name}")
    for name in METRICS_REQUIRED_HISTOGRAMS:
        hist = doc["histograms"].get(name)
        if not isinstance(hist, dict):
            errors.append(f"missing histogram: {name}")
            continue
        for key in ("count", "sum", "sub_bucket_bits", "buckets",
                    "p50", "p95", "p99", "p999"):
            if key not in hist:
                errors.append(f"histogram {name}: missing {key}")
    return errors


# Provenance a baseline diff requires to match (exit 2 otherwise).
COMPARABLE_META = ("meta.build_type", "meta.hardware_threads")


def incomparable_meta(doc, base):
    """Names and values of the COMPARABLE_META fields that differ."""
    return [f"{path} ({lookup(doc, path)!r} vs baseline {lookup(base, path)!r})"
            for path in COMPARABLE_META if lookup(doc, path) != lookup(base, path)]


def check_baseline(kind, doc, base, tolerance):
    errors = []
    for path in THROUGHPUT_KEYS[kind]:
        cur, ref = lookup(doc, path), lookup(base, path)
        if cur is None or ref is None or not isinstance(ref, NUM) or ref <= 0:
            continue  # baseline predates the metric; schema already gates doc
        floor = ref * (1.0 - tolerance)
        if cur < floor:
            errors.append(
                f"{path} regressed: {cur:.1f} < {floor:.1f} "
                f"(baseline {ref:.1f}, tolerance {tolerance:.0%})"
            )
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("kind",
                    choices=sorted(set(SCHEMAS) | {"metrics"}))
    ap.add_argument("json_path")
    ap.add_argument("--baseline")
    ap.add_argument("--tolerance", type=float, default=0.5)
    args = ap.parse_args()

    doc = load_json(args.json_path)

    if args.kind == "metrics":
        errors = check_metrics_export(doc)
    else:
        errors = check_schema(SCHEMAS[args.kind], doc)
    if args.kind == "flight":
        errors.extend(
            check_record_list(doc, "requests", FLIGHT_RECORD_FIELDS))
        errors.extend(check_phase_telescoping(doc, "requests"))
    for path in ZERO_KEYS[args.kind]:
        val = lookup(doc, path)
        if val not in (0, None):
            errors.append(f"{path} must be 0, got {val}")
    if args.baseline:
        base = load_json(args.baseline)
        differ = incomparable_meta(doc, base)
        if differ:
            print(f"check_bench_json[{args.kind}]: refused: baseline differs "
                  f"in {', '.join(differ)}", file=sys.stderr)
            return 2
        errors.extend(check_baseline(args.kind, doc, base, args.tolerance))

    if errors:
        for e in errors:
            print(f"check_bench_json[{args.kind}]: {e}", file=sys.stderr)
        return 1
    print(f"check_bench_json[{args.kind}]: {args.json_path} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
