#!/usr/bin/env python3
"""Compare two sets of benchmark runs against ``BENCHMARK.json``.

    python3 perf/compare.py A/ B/

``A`` and ``B`` are directories of run files written by ``perf/run.py
--out`` (say, of a parent commit and of a change).  For every workload
and end-to-end metric it prints each side's median and interquartile
range (IQR, as a share of the median) and a verdict against the
metric's bound:

- ``unresolved``: either side's IQR exceeds the bound, so run-to-run
  noise could hide a regression -- unless every run of B reads better
  than every run of A;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``unchanged``: otherwise.

Traced runs and runs whose checks failed are left out.  Exit status: 0
when every verdict is ``unchanged``, 1 otherwise, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: workload -> metric -> values, one per run.
Samples = Dict[str, Dict[str, List[float]]]


def load_runs(directory: str) -> Samples:
    """End-to-end metric values of every correct untraced run."""
    samples: Samples = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        if record.get("trace") or not record.get("correct"):
            continue
        metrics = samples.setdefault(record["workload"], {})
        for name, (value, _unit) in record["metrics"].items():
            metrics.setdefault(name, []).append(float(value))
    return samples


def spread(values: List[float]) -> Tuple[float, float]:
    """``(median, IQR / |median|)`` of ``values``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return median, (high - low) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], bound: float, better: str) -> Dict[str, Any]:
    """Judge the move from runs ``a`` to runs ``b`` of one metric."""
    a_median, a_spread = spread(a)
    b_median, b_spread = spread(b)
    sign = 1.0 if better == "lower" else -1.0
    change = (b_median - a_median) / abs(a_median) if a_median else b_median - a_median
    worse_by = sign * change
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(a_spread, b_spread) > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "a_median": a_median, "a_iqr": a_spread, "a_runs": len(a),
        "b_median": b_median, "b_iqr": b_spread, "b_runs": len(b),
        "change": change, "bound": bound, "verdict": outcome,
    }


def compare(a: Samples, b: Samples, spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One verdict row per workload and end-to-end metric on both sides."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = a[workload].get(name)
            b_values = b[workload].get(name)
            if not a_values or not b_values:
                continue
            row = verdict(a_values, b_values, metric["bound"], metric["better"])
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="directory of baseline runs")
    parser.add_argument("b", help="directory of candidate runs")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    a, b = load_runs(args.a), load_runs(args.b)
    rows = compare(a, b, spec)
    if not rows:
        print("no workload has correct untraced runs on both sides", file=sys.stderr)
        return 2
    print("%-12s %-18s %14s %7s %14s %7s %8s %6s  %s" % (
        "workload", "metric", "A median", "A IQR", "B median", "B IQR",
        "change", "bound", "verdict"))
    for row in rows:
        print("%-12s %-18s %14.6g %6.2f%% %14.6g %6.2f%% %+7.2f%% %5.1f%%  %s (%d vs %d runs)" % (
            row["workload"], row["metric"], row["a_median"], row["a_iqr"] * 100,
            row["b_median"], row["b_iqr"] * 100, row["change"] * 100,
            row["bound"] * 100, row["verdict"], row["a_runs"], row["b_runs"]))
    return 0 if all(row["verdict"] == "unchanged" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
