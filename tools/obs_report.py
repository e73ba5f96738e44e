#!/usr/bin/env python3
"""Render a DitaService flight-recorder dump into a terminal SLO report.

Input: the JSON written by DitaService::DumpFlightRecorder(), for example
PREFIX_flight.json from `serving_demo --obs-export=PREFIX`. Stdlib-only,
like the rest of tools/.

Sections:
  * per-kind latency: p50/p95/p99/p999 upper bounds from the service's
    mergeable log-bucketed histograms (every completion counted, sheds
    included), plus queue/admission wait;
  * outcome rates: shed / degraded / error / cache-hit as fractions of all
    completed requests;
  * request timeline: the recorder's last-N requests rendered oldest-first
    with phase breakdowns, flags, and merge overlap — the "what were the
    moments before the incident" view;
  * merge/cache activity inferred from the same records: which requests
    overlapped an epoch merge and the hit pattern over time.

Usage:
  obs_report.py <flight.json> [--requests N] [--slo-p99-ms F]

Exit status is 0 unless --slo-p99-ms is given and a kind's p99 exceeds it.
"""

import argparse
import sys

from bench_json_common import load_json, lookup, phase_sum


def fmt_ms(seconds):
    return f"{seconds * 1e3:9.3f}"


def pct(n, d):
    return 0.0 if d == 0 else 100.0 * n / d


def latency_table(service):
    rows = []
    for kind in ("search", "join", "knn", "queue_wait", "admission_wait"):
        q = lookup(service, f"latency.{kind}")
        if not q:
            continue
        rows.append(
            f"  {kind:<15} n={q.get('count', 0):<8} "
            f"p50={fmt_ms(q.get('p50', 0.0))}ms "
            f"p95={fmt_ms(q.get('p95', 0.0))}ms "
            f"p99={fmt_ms(q.get('p99', 0.0))}ms "
            f"p999={fmt_ms(q.get('p999', 0.0))}ms"
        )
    return rows


def outcome_rates(service):
    total = service.get("queries", 0)
    lines = [f"  completed requests: {total}"]
    for key in ("shed", "degraded", "errors"):
        n = service.get(key, 0)
        lines.append(f"  {key:<10} {n:>8}  ({pct(n, total):5.2f}%)")
    hits = service.get("cache_hits", 0)
    lookups = hits + service.get("cache_misses", 0)
    lines.append(
        f"  cache      {hits:>8}  hits of {lookups} lookups "
        f"({pct(hits, lookups):5.2f}%)"
    )
    lines.append(
        f"  ingest     {service.get('inserts', 0)} inserts, "
        f"{service.get('deletes', 0)} deletes, "
        f"{service.get('merges', 0)} merges "
        f"({service.get('merge_busy_seconds', 0.0):.3f}s merge-busy)"
    )
    return lines


def flags_of(rec):
    out = []
    for key, tag in (("cache_hit", "hit"), ("degraded", "degraded"),
                     ("shed", "SHED"), ("async", "async")):
        if rec.get(key):
            out.append(tag)
    if rec.get("stop_cause", "none") != "none":
        out.append(f"stop:{rec['stop_cause']}")
    return ",".join(out) or "-"

def timeline(requests, limit):
    lines = [
        "  " + " ".join([
            f"{'id':>6}", f"{'t_arrive':>10}", f"{'kind':<6}",
            f"{'total_ms':>9}", f"{'queue':>7}", f"{'admit':>7}",
            f"{'cache':>7}", f"{'base':>8}", f"{'delta':>7}",
            f"{'mergeovl':>8}", f"{'res':>5}", f"{'ep':>3}", "flags",
        ])
    ]
    for rec in requests[-limit:]:
        lines.append("  " + " ".join([
            f"{rec.get('id', 0):>6}",
            f"{rec.get('arrival_seconds', 0.0):>10.4f}",
            f"{rec.get('kind', '?'):<6}",
            f"{rec.get('total_seconds', 0.0) * 1e3:>9.3f}",
            f"{rec.get('queue_seconds', 0.0) * 1e3:>7.3f}",
            f"{rec.get('admission_seconds', 0.0) * 1e3:>7.3f}",
            f"{rec.get('cache_seconds', 0.0) * 1e3:>7.3f}",
            f"{rec.get('base_seconds', 0.0) * 1e3:>8.3f}",
            f"{rec.get('delta_seconds', 0.0) * 1e3:>7.3f}",
            f"{rec.get('merge_overlap_seconds', 0.0) * 1e3:>8.3f}",
            f"{rec.get('results', 0):>5}",
            f"{rec.get('epoch', 0):>3}",
            flags_of(rec),
        ]))
    return lines


def activity(requests):
    """Merge/cache activity over the recorded window."""
    overlapped = [r for r in requests if r.get("merge_overlap_seconds", 0) > 0]
    hits = [r for r in requests if r.get("cache_hit")]
    epochs = sorted({r.get("epoch", 0) for r in requests})
    lines = [
        f"  recorded window: {len(requests)} requests, epochs {epochs}",
        f"  merge-overlapped: {len(overlapped)} requests "
        f"({pct(len(overlapped), len(requests)):5.2f}%)",
        f"  cache hits in window: {len(hits)} "
        f"({pct(len(hits), len(requests)):5.2f}%)",
    ]
    if overlapped:
        worst = max(overlapped,
                    key=lambda r: r.get("merge_overlap_seconds", 0.0))
        lines.append(
            f"  worst merge overlap: request {worst.get('id')} "
            f"({worst.get('merge_overlap_seconds', 0.0) * 1e3:.3f}ms of "
            f"{worst.get('total_seconds', 0.0) * 1e3:.3f}ms total)"
        )
    bad = [r for r in requests
           if abs(phase_sum(r) - r.get("total_seconds", 0.0))
           > 1e-9 + 1e-6 * abs(r.get("total_seconds", 0.0))]
    lines.append(
        "  phase telescoping: OK" if not bad else
        f"  phase telescoping: {len(bad)} records do NOT sum to total"
    )
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("flight_json")
    ap.add_argument("--requests", type=int, default=20,
                    help="timeline rows to print (default 20)")
    ap.add_argument("--slo-p99-ms", type=float, default=None,
                    help="fail (exit 1) if any query kind's p99 exceeds this")
    args = ap.parse_args()

    doc = load_json(args.flight_json)
    service = doc.get("service", {})
    requests = doc.get("requests", [])

    print(f"== serving SLO report: {args.flight_json} ==")
    print(f"uptime: {service.get('uptime_seconds', 0.0):.3f}s, "
          f"flight recorder {len(requests)}/{service.get('capacity', 0)} "
          f"slots ({service.get('recorded', 0)} ever recorded)")
    print("\n-- latency (histogram quantile upper bounds) --")
    for line in latency_table(service):
        print(line)
    print("\n-- outcomes --")
    for line in outcome_rates(service):
        print(line)
    print("\n-- merge / cache activity --")
    for line in activity(requests):
        print(line)
    print(f"\n-- last {min(args.requests, len(requests))} requests --")
    for line in timeline(requests, args.requests):
        print(line)

    if args.slo_p99_ms is not None:
        failed = []
        for kind in ("search", "join", "knn"):
            q = lookup(service, f"latency.{kind}") or {}
            if q.get("count", 0) and q.get("p99", 0.0) * 1e3 > args.slo_p99_ms:
                failed.append((kind, q["p99"] * 1e3))
        if failed:
            for kind, ms in failed:
                print(f"SLO VIOLATION: {kind} p99 {ms:.3f}ms > "
                      f"{args.slo_p99_ms:.3f}ms", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
