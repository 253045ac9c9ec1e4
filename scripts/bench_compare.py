#!/usr/bin/env python3
"""Compare two BENCH.json reports and gate on regressions.

Usage:
    bench_compare.py BASELINE.json PR.json [--max-regress PCT]
                     [--min-speedup NAME:FACTOR ...]

Work counters (accesses, misses, interpreter passes, iterations, ...)
are deterministic: two `memoria bench --json` runs with different
--reps give the same value for every counter, and so do a traced and
an untraced run. So a counter must equal its baseline exactly; a change
in either direction is a hard failure. More work is an algorithmic
regression (e.g. the sweep fell back to one interpreter pass per
config); less work, or fewer misses, means the benchmark or the
simulator changed what it computes. Either way the baseline is
refreshed on purpose, not absorbed by an allowance. Wall-clock medians
are noisy on shared CI runners, so time regressions only emit GitHub
warning annotations; they never fail the job.

--min-speedup NAME:FACTOR asserts the PR median wall time for NAME is
at least FACTOR times faster than the baseline's. Unlike plain time
comparisons it IS a hard gate: it is only used against a deliberately
preserved pre-optimization baseline where the expected margin (e.g.
5x against a 3x floor) dwarfs runner noise.

Exit status: 0 = clean or time-warnings only; 1 = counter mismatch,
unmet --min-speedup floor, missing benchmark, or malformed report.
"""

import argparse
import json
import sys

SCHEMA = "memoria-bench-v1"


def load(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != SCHEMA:
        raise SystemExit(
            f"{path}: schema {report.get('schema')!r} != {SCHEMA!r}"
        )
    return report


def index(report):
    return {b["name"]: b for b in report.get("benchmarks", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("pr")
    ap.add_argument(
        "--max-regress",
        type=float,
        default=25.0,
        metavar="PCT",
        help="median wall-time growth in %% that triggers a warning "
        "(default: 25); counters are compared exactly",
    )
    ap.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="NAME:FACTOR",
        help="hard-fail unless baseline_median / pr_median for NAME "
        "is >= FACTOR (repeatable)",
    )
    args = ap.parse_args()

    floors = {}
    for spec in args.min_speedup:
        name, sep, factor = spec.rpartition(":")
        try:
            if not sep:
                raise ValueError
            floors[name] = float(factor)
        except ValueError:
            raise SystemExit(
                f"--min-speedup wants NAME:FACTOR, got {spec!r}"
            )

    base = index(load(args.baseline))
    pr = index(load(args.pr))
    allow = 1.0 + args.max_regress / 100.0

    failures = []
    warnings = []

    for name, b in sorted(base.items()):
        p = pr.get(name)
        if p is None:
            failures.append(f"benchmark '{name}' missing from PR report")
            continue

        for counter, bval in sorted(b.get("counters", {}).items()):
            pval = p.get("counters", {}).get(counter)
            if pval is None:
                failures.append(f"{name}: counter '{counter}' missing")
                continue
            if pval != bval:
                failures.append(
                    f"{name}: counter '{counter}' changed "
                    f"{bval} -> {pval} (counters must match exactly)"
                )

        bms = b.get("wall_ms", {}).get("median")
        pms = p.get("wall_ms", {}).get("median")
        if bms and pms and pms > bms * allow:
            warnings.append(
                f"{name}: median wall time {bms:.2f}ms -> {pms:.2f}ms "
                f"(+{(pms / bms - 1) * 100:.1f}%) — advisory only"
            )

    for name, factor in sorted(floors.items()):
        b, p = base.get(name), pr.get(name)
        bms = b.get("wall_ms", {}).get("median") if b else None
        pms = p.get("wall_ms", {}).get("median") if p else None
        if not bms or not pms:
            failures.append(
                f"--min-speedup {name}:{factor:g}: benchmark or its "
                "median missing from a report"
            )
            continue
        speedup = bms / pms
        if speedup < factor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x "
                f"({bms:.2f}ms -> {pms:.2f}ms) below the "
                f"{factor:g}x floor"
            )
        else:
            print(
                f"speedup OK: {name} {speedup:.2f}x "
                f"({bms:.2f}ms -> {pms:.2f}ms, floor {factor:g}x)"
            )

    for name in sorted(set(pr) - set(base)):
        print(f"note: new benchmark '{name}' (no baseline)")

    for w in warnings:
        print(f"::warning title=bench time regression::{w}")
        print(f"WARN: {w}")
    for f in failures:
        print(f"FAIL: {f}")

    if failures:
        print(f"\n{len(failures)} hard failure(s); "
              "refresh BENCH_baseline.json only for intentional changes "
              "(see docs/PERFORMANCE.md).")
        return 1
    print(f"bench compare OK: {len(base)} benchmarks, "
          f"{len(warnings)} time warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
