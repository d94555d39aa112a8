#!/usr/bin/env python3
"""Bench-smoke regression gate.

Compares a freshly generated BENCH_speccc.json against a baseline (the
committed snapshot) and fails when any matching table1 row (the plain
check and, as table1_witness, the check that also extracts the
controller), localize point or edit-latency percentile (incremental,
cold session and full pipeline) got more than TOLERANCE times slower.
Only keys present in both files are compared, so the reduced smoke
quota (fewer rows, fewer localize sizes) diffs cleanly against a full
baseline.

Environment:
  SPECCC_BENCH_TOLERANCE  slowdown factor that fails the gate
                          (default 2.0)
  SPECCC_BENCH_MIN_DELTA  absolute slowdown floor in seconds; smaller
                          deltas never fail, whatever the ratio
                          (default 0.1) -- sub-millisecond rows would
                          otherwise trip on scheduler noise

Usage: bench_regression.py BASELINE CURRENT [REPORT]
Exit:  0 ok, 1 regression found, 2 usage/parse error.
"""

import json
import os
import sys


def die(message):
    print(f"bench_regression: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        die(f"cannot read {path}: {exc}")


def entries(snapshot):
    """(kind, key) -> seconds for every comparable point."""
    points = {}
    for row in snapshot.get("table1", []):
        points[("table1", row["row"])] = float(row["seconds"])
        if "witness_seconds" in row:
            points[("table1_witness", row["row"])] = float(
                row["witness_seconds"]
            )
    for point in snapshot.get("localize", []):
        points[("localize", f"n={point['n']}")] = float(point["seconds"])
    edit = snapshot.get("edit_latency", {})
    for field in (
        "incr_p50_ms",
        "incr_p95_ms",
        "cold_p50_ms",
        "cold_p95_ms",
        "pipeline_p50_ms",
        "pipeline_p95_ms",
    ):
        if field in edit:
            # per-edit walls are milliseconds; compare in seconds like
            # every other point so the absolute floor keeps meaning
            points[("edit_latency", field)] = float(edit[field]) / 1000.0
    return points


def main():
    if len(sys.argv) not in (3, 4):
        die("usage: bench_regression.py BASELINE CURRENT [REPORT]")
    tolerance = float(os.environ.get("SPECCC_BENCH_TOLERANCE", "2.0"))
    min_delta = float(os.environ.get("SPECCC_BENCH_MIN_DELTA", "0.1"))
    baseline = entries(load(sys.argv[1]))
    current = entries(load(sys.argv[2]))

    lines = [
        f"bench regression gate: tolerance {tolerance:.2f}x, "
        f"absolute floor {min_delta:.3f}s",
        f"{'point':<28} {'baseline':>10} {'current':>10} {'ratio':>8}",
    ]
    regressions = []
    compared = 0
    for key in sorted(current):
        if key not in baseline:
            continue
        compared += 1
        base, now = baseline[key], current[key]
        ratio = now / base if base > 0 else float("inf")
        bad = now - base > min_delta and ratio > tolerance
        if bad:
            regressions.append(key)
        lines.append(
            f"{key[0] + ' ' + key[1]:<28} {base:>9.4f}s {now:>9.4f}s "
            f"{ratio:>7.2f}x{'  << REGRESSION' if bad else ''}"
        )
    if compared == 0:
        lines.append("no comparable points (baseline/current key mismatch)")
    lines.append(
        f"{compared} points compared, {len(regressions)} regression(s)"
    )

    report = "\n".join(lines) + "\n"
    print(report, end="")
    if len(sys.argv) == 4:
        with open(sys.argv[3], "w") as handle:
            handle.write(report)
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
