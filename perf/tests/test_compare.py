"""Verdicts of the run comparator on synthetic samples."""

from __future__ import annotations

import json

from perf import compare

SPEC = {
    "end_to_end": [
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    ]
}
LATENCY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_identical_sets_are_unchanged():
    row = compare.verdict(LATENCY, list(LATENCY), 0.1, "lower")
    assert row["verdict"] == "unchanged"
    assert row["change"] == 0.0


def test_a_slowdown_of_1_3x_is_a_regression_either_way_round():
    slower = [v * 1.3 for v in LATENCY]
    assert compare.verdict(LATENCY, slower, 0.1, "lower")["verdict"] == "regressed"
    throughput = [1e6 / v for v in LATENCY]
    less = [1e6 / v for v in slower]
    assert compare.verdict(throughput, less, 0.1, "higher")["verdict"] == "regressed"


def test_a_speedup_is_not_a_regression():
    faster = [v / 1.3 for v in LATENCY]
    assert compare.verdict(LATENCY, faster, 0.1, "lower")["verdict"] == "unchanged"


def test_wide_overlapping_sets_are_unresolved():
    wide_a = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    wide_b = [65.0, 145.0, 85.0, 125.0, 105.0, 75.0, 135.0, 95.0, 115.0, 105.0]
    row = compare.verdict(wide_a, wide_b, 0.1, "lower")
    assert row["a_iqr"] > 0.1
    assert row["verdict"] == "unresolved"


def test_noise_is_forgiven_when_every_candidate_run_is_better():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0]
    assert compare.verdict(wide, [10.0, 20.0, 30.0], 0.1, "lower")["verdict"] == "unchanged"


def _write_runs(directory, values, workload="query", **extra):
    for index, value in enumerate(values):
        record = {
            "workload": workload, "correct": True, "trace": False,
            "metrics": {"latency_p50_us": [value, "us"],
                        "throughput_ops_s": [1e6 / value, "ops/s"]},
        }
        record.update(extra)
        (directory / ("%s-%d.json" % (workload, index))).write_text(json.dumps(record))


def test_compare_reads_run_directories_and_skips_traced_or_failed_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _write_runs(a, LATENCY)
    _write_runs(b, [v * 1.3 for v in LATENCY])
    _write_runs(b, [1.0], workload="query-traced", trace=True)
    _write_runs(b, [1.0], workload="query-failed", correct=False)
    samples = compare.load_runs(str(b))
    assert set(samples) == {"query"}
    rows = compare.compare(compare.load_runs(str(a)), samples, SPEC)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("latency_p50_us", "regressed"), ("throughput_ops_s", "regressed"),
    ]
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
