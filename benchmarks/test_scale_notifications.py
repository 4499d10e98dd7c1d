"""SCALE-3: notification load vs. relevance threshold (Section V-B).

The open challenge the paper states: "when and how to notify a user and
how to obtain user feedback without inducing user fatigue".  This
benchmark sweeps the IoTA's relevance threshold for each Westin persona
against the full set of practices a DBH deployment advertises, and
reports how many notifications each configuration produces.

Expected shape: notifications fall sharply as the threshold rises; at
every threshold the fundamentalist assistant surfaces at least as many
practices as the unconcerned one; and the practices that survive high
thresholds are the objectively sensitive ones (third-party/marketing).
"""

from benchmarks.conftest import report
from repro.bench.workloads import (
    ADVERTISED,
    NOTIFICATION_THRESHOLDS as THRESHOLDS,
    notification_sweep,
    persona_models,
)


def test_scale_notifications_sweep(benchmark):
    series = benchmark.pedantic(
        notification_sweep, args=(persona_models(),), iterations=1, rounds=1
    )

    header = "%-16s" + " %5.2f" * len(THRESHOLDS)
    rows = [header % ("threshold", *THRESHOLDS)]
    for name in sorted(series):
        rows.append(
            ("%-16s" + " %5d" * len(THRESHOLDS)) % (name, *series[name])
        )
    report(
        "SCALE-3: notifications shown (of %d advertised practices)" % len(ADVERTISED),
        rows,
    )

    for name, counts in series.items():
        # Monotone non-increasing in the threshold.
        assert all(a >= b for a, b in zip(counts, counts[1:])), name
    # Stricter personas are notified at least as much, at every threshold.
    for fa, un in zip(series["fundamentalist"], series["unconcerned"]):
        assert fa >= un
    # A mid threshold must cut the load substantially for everyone.
    mid = THRESHOLDS.index(0.4)
    assert all(counts[mid] <= len(ADVERTISED) // 2 for counts in series.values())

    for name, counts in series.items():
        benchmark.extra_info[name] = counts
