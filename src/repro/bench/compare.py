"""Gate a candidate bench record against a committed baseline.

One rule per kind of number, and no knobs:

- **Timed** medians regress when the candidate is worse than the
  baseline by more than ``SPREAD_FACTOR`` times the two records' IQR
  shares, added in quadrature: each record's own measured spread sets
  how much movement is noise.  Lower is better, except for
  ``*_speedup`` ratios.
- **Counted** numbers are seeded, so any change at all is a regression.
- **Peak RSS** may grow by at most ``RSS_BOUND``.
- ``compiled_speedup`` must stay at or above ``COMPILED_SPEEDUP_FLOOR``.

``compare_records`` never raises on a regression -- it returns a report
whose ``ok`` drives the CLI exit code (0 pass, 1 regression), keeping
the CI gate's contract explicit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from repro.bench.schema import BenchRecord

#: A timed median may be worse than the baseline's by this many times
#: the two records' IQR shares, added in quadrature.
SPREAD_FACTOR = 2.5

#: Peak RSS may grow by this share (``BENCHMARK.json``'s ``peak_rss_mb``
#: bound).
RSS_BOUND = 0.10

#: Compiled enforcement must stay at least this many times faster than
#: the interpreter.  The tables landed at >= 10x (``BENCH_0002``).
COMPILED_SPEEDUP_FLOOR = 8.0


@dataclass(frozen=True)
class MetricVerdict:
    """One metric's pass/fail against the baseline."""

    benchmark: str
    metric: str
    baseline: float
    candidate: float
    limit: float
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok        " if self.ok else "REGRESSED "
        return "%s %-20s %-32s baseline=%-12.6g candidate=%-12.6g limit=%.6g%s" % (
            status,
            self.benchmark,
            self.metric,
            self.baseline,
            self.candidate,
            self.limit,
            (" (%s)" % self.detail) if self.detail else "",
        )


@dataclass
class ComparisonReport:
    """Every verdict of one baseline-vs-candidate comparison."""

    baseline_id: int
    candidate_label: str
    verdicts: List[MetricVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def lines(self) -> List[str]:
        lines = [
            "bench compare: baseline=BENCH_%04d candidate=%s"
            % (self.baseline_id, self.candidate_label or "<fresh run>"),
        ]
        lines.extend(v.line() for v in self.verdicts)
        lines.append(
            "result: %s (%d metrics, %d regressed)"
            % ("OK" if self.ok else "REGRESSED", len(self.verdicts),
               len(self.regressions))
        )
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline_id": self.baseline_id,
            "candidate_label": self.candidate_label,
            "ok": self.ok,
            "verdicts": [asdict(v) for v in self.verdicts],
        }

    def check(self, benchmark: str, metric: str, baseline: float,
              candidate: float, limit: float, ok: bool, detail: str) -> None:
        self.verdicts.append(MetricVerdict(
            benchmark, metric, baseline, candidate, limit, ok, detail
        ))

    def missing(self, benchmark: str, metric: str) -> None:
        self.check(benchmark, metric, 1.0, 0.0, 1.0, False,
                   "%s missing from candidate" % metric)


def compare_records(baseline: BenchRecord, candidate: BenchRecord) -> ComparisonReport:
    """Every baseline metric checked against ``candidate``."""
    report = ComparisonReport(
        baseline_id=baseline.record_id,
        candidate_label=candidate.label or ("record %d" % candidate.record_id),
    )
    for name, base in sorted(baseline.benchmarks.items()):
        cand = candidate.benchmarks.get(name)
        if cand is None:
            report.missing(name, "benchmark")
            continue
        for metric, base_timed in sorted(base.timed.items()):
            cand_timed = cand.timed.get(metric)
            if cand_timed is None:
                report.missing(name, "timed." + metric)
                continue
            tolerance = SPREAD_FACTOR * math.hypot(base_timed.share, cand_timed.share)
            if metric.endswith("_speedup"):
                limit = base_timed.median / (1.0 + tolerance)
                ok = cand_timed.median >= limit
            else:
                limit = base_timed.median * (1.0 + tolerance)
                ok = cand_timed.median <= limit
            report.check(name, "timed." + metric, base_timed.median,
                         cand_timed.median, limit, ok,
                         "tolerance %.1f%%" % (100.0 * tolerance))
        for metric, base_count in sorted(base.counted.items()):
            if metric not in cand.counted:
                report.missing(name, "counted." + metric)
                continue
            report.check(name, "counted." + metric, base_count,
                         cand.counted[metric], base_count,
                         cand.counted[metric] == base_count, "exact")
        speedup = cand.timed.get("compiled_speedup")
        if speedup is not None:
            report.check(name, "compiled_speedup.floor", COMPILED_SPEEDUP_FLOOR,
                         speedup.median, COMPILED_SPEEDUP_FLOOR,
                         speedup.median >= COMPILED_SPEEDUP_FLOOR,
                         "floor %gx" % COMPILED_SPEEDUP_FLOOR)
    limit = baseline.peak_rss_kb * (1.0 + RSS_BOUND)
    report.check("<record>", "peak_rss_kb", baseline.peak_rss_kb,
                 candidate.peak_rss_kb, limit,
                 candidate.peak_rss_kb <= limit,
                 "bound %g%%" % (100.0 * RSS_BOUND))
    return report
