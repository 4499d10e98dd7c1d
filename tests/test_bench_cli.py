"""Unit tests for the bench trajectory: runner, compare gate, and CLI.

The suite itself is exercised at the cheap ``smoke`` scale twice, back
to back (module fixture), and those records are reused across tests;
slower candidates are built by scaling their numbers, not by re-running.
The spread rule's arithmetic is checked on stated records, whose
medians and IQRs no machine measured; the checks that a 1.3x slowdown
of a measured record is caught live in ``benchmarks/test_bench_gate.py``
(``make bench``), because a loaded machine can measure a wider spread.
"""

import dataclasses
import math

import pytest

from repro import bench
from repro.__main__ import main
from repro.bench import Timed
from repro.bench.compare import SPREAD_FACTOR
from repro.errors import BenchError

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def smoke_records():
    """Two smoke records taken back to back."""
    return (
        bench.run_suite(scale="smoke", label="unit-test"),
        bench.run_suite(scale="smoke", label="unit-test-again"),
    )


@pytest.fixture(scope="module")
def smoke_record(smoke_records):
    return smoke_records[0]


def slow_down(record, factor=1.3, metric="", name=""):
    """A copy of ``record`` with its timed medians (and their spreads)
    made ``factor`` times worse: every one, or those named ``metric`` in
    benchmark ``name``."""
    def worse(key, timed):
        scale = 1.0 / factor if key.endswith("_speedup") else factor
        return Timed(median=timed.median * scale, iqr=timed.iqr * scale)

    benchmarks = {}
    for bench_name, entry in record.benchmarks.items():
        benchmarks[bench_name] = dataclasses.replace(entry, timed={
            key: worse(key, timed)
            if (not metric or key == metric) and (not name or bench_name == name)
            else timed
            for key, timed in entry.timed.items()
        })
    return dataclasses.replace(record, benchmarks=benchmarks)


def stated_record(median=100.0, share=0.04, speedup=20.0):
    """A valid record with stated numbers, measured by nobody: every
    benchmark's ``us_per_op`` is ``median`` with an IQR of ``share``
    times it, its ``linear_speedup`` is ``speedup`` with the same share,
    and its counts are fixed."""
    def timed(value):
        return Timed(median=value, iqr=value * share)

    return bench.BenchRecord(
        version=bench.BENCH_SCHEMA_VERSION,
        record_id=0,
        scale="smoke",
        label="stated",
        peak_rss_kb=1000,
        benchmarks={
            name: bench.BenchmarkEntry(
                name=name,
                timed={"us_per_op": timed(median),
                       "linear_speedup": timed(speedup)},
                counted={"wal_bytes": 100.0},
            )
            for name in bench.BENCHMARK_NAMES
        },
    )


class TestRunSuite:
    def test_record_is_valid_and_complete(self, smoke_record):
        smoke_record.validate()
        assert set(smoke_record.benchmarks) == set(bench.BENCHMARK_NAMES)
        assert smoke_record.scale == "smoke"
        assert smoke_record.peak_rss_kb > 0

    def test_every_benchmark_measured_real_work(self, smoke_record):
        for entry in smoke_record.benchmarks.values():
            assert entry.timed["us_per_op"].median > 0.0
        counted = {
            name: entry.counted for name, entry in smoke_record.benchmarks.items()
        }
        assert counted["scale_ingest"]["wal_bytes"] > 0
        assert counted["scale_overload"]["shed_rate"] > 0.0

    def test_enforcement_reports_index_speedup(self, smoke_record):
        timed = smoke_record.benchmarks["scale_enforcement"].timed
        assert timed["linear_speedup"].median > 0.0
        assert timed["compiled_speedup"].median > 0.0

    def test_counted_numbers_repeat_exactly(self, smoke_records):
        first, second = smoke_records
        for name, entry in first.benchmarks.items():
            assert entry.counted == second.benchmarks[name].counted, name

    def test_unknown_scale_is_rejected(self):
        with pytest.raises(BenchError, match="scale"):
            bench.run_suite(scale="galactic")


class TestTrajectory:
    def test_append_numbers_sequentially(self, smoke_record, tmp_path):
        first, first_path = bench.append_record(smoke_record, str(tmp_path))
        second, second_path = bench.append_record(smoke_record, str(tmp_path))
        assert first.record_id == 1
        assert second.record_id == 2
        assert first_path.endswith("BENCH_0001.json")
        assert second_path.endswith("BENCH_0002.json")
        assert bench.latest_record(str(tmp_path)).record_id == 2

    def test_scratch_outputs_never_become_baselines(
        self, smoke_record, tmp_path
    ):
        bench.write_record(smoke_record, str(tmp_path / "BENCH_PR.json"))
        assert bench.latest_record(str(tmp_path)) is None
        assert bench.list_records(str(tmp_path)) == []

    def test_write_is_atomic(self, smoke_record, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        bench.write_record(smoke_record, str(path))
        assert not (tmp_path / "BENCH_0001.json.tmp").exists()
        assert bench.load_record(str(path)).benchmarks


class TestCompare:
    def test_identical_records_pass(self, smoke_record):
        report = bench.compare_records(smoke_record, smoke_record)
        assert report.ok
        assert not report.regressions

    def test_back_to_back_records_pass_both_ways(self, smoke_records):
        first, second = smoke_records
        for baseline, candidate in ((first, second), (second, first)):
            report = bench.compare_records(baseline, candidate)
            assert report.ok, "\n".join(report.lines())

    def test_throughput_regression_is_caught(self, smoke_record):
        # Time per op is the reciprocal of throughput.  A self-compare
        # tolerates the factor times sqrt(2) times the metric's spread.
        timed = smoke_record.benchmarks["scale_ingest"].timed["us_per_op"]
        tolerance = SPREAD_FACTOR * math.sqrt(2) * timed.share
        for factor, ok in ((1.0 + tolerance * 0.99, True),
                           (1.0 + tolerance * 1.01, False)):
            report = bench.compare_records(
                smoke_record,
                slow_down(smoke_record, factor, "us_per_op", "scale_ingest"),
            )
            assert report.ok is ok
            assert [v.metric for v in report.regressions] == (
                [] if ok else ["timed.us_per_op"]
            )

    def test_a_count_off_by_one_is_caught(self, smoke_record):
        for delta in (-1, 1):
            entry = smoke_record.benchmarks["scale_federate"]
            counted = dict(entry.counted)
            counted["wal_bytes"] += delta
            candidate = dataclasses.replace(smoke_record, benchmarks=dict(
                smoke_record.benchmarks,
                scale_federate=dataclasses.replace(entry, counted=counted),
            ))
            report = bench.compare_records(smoke_record, candidate)
            assert [v.metric for v in report.regressions] == ["counted.wal_bytes"]

    def test_compiled_speedup_floor(self, smoke_record):
        candidate = slow_down(
            smoke_record, factor=100.0, metric="compiled_speedup"
        )
        report = bench.compare_records(candidate, candidate)
        assert [v.metric for v in report.regressions] == [
            "compiled_speedup.floor"
        ]

    def test_peak_rss_growth_is_caught(self, smoke_record):
        candidate = dataclasses.replace(
            smoke_record, peak_rss_kb=int(smoke_record.peak_rss_kb * 1.2)
        )
        report = bench.compare_records(smoke_record, candidate)
        assert [v.metric for v in report.regressions] == ["peak_rss_kb"]

    def test_missing_benchmark_is_a_regression(self, smoke_record):
        benchmarks = dict(smoke_record.benchmarks)
        del benchmarks["scale_week"]
        candidate = dataclasses.replace(smoke_record, benchmarks=benchmarks)
        report = bench.compare_records(smoke_record, candidate)
        assert any(v.detail.startswith("benchmark missing")
                   for v in report.regressions)

    def test_report_renders_and_serializes(self, smoke_record):
        report = bench.compare_records(smoke_record, smoke_record)
        assert any("result: OK" in line for line in report.lines())
        payload = report.to_dict()
        assert payload["ok"] is True
        assert len(payload["verdicts"]) == len(report.verdicts)


class TestSpreadRule:
    """``compare_records`` on stated records.  The baseline's IQR share
    is 4% and the candidate's 3%, so the two add in quadrature to 5%
    and the tolerance is ``SPREAD_FACTOR`` times that, 12.5%.  Ignoring
    the spread would allow 0%, adding the shares linearly 17.5%; the
    candidates sit between those bounds and 12.5%."""

    def regressions(self, candidate):
        report = bench.compare_records(stated_record(), candidate)
        return [(v.benchmark, v.metric) for v in report.regressions]

    def test_time_per_op_bound_adds_spreads_in_quadrature(self):
        assert self.regressions(stated_record(median=112.0, share=0.03)) == []
        assert self.regressions(stated_record(median=113.0, share=0.03)) == [
            (name, "timed.us_per_op") for name in sorted(bench.BENCHMARK_NAMES)
        ]

    def test_speedup_bound_adds_spreads_in_quadrature(self):
        # A speedup regresses when it falls below baseline / 1.125.
        assert self.regressions(stated_record(speedup=17.9, share=0.03)) == []
        assert self.regressions(stated_record(speedup=17.7, share=0.03)) == [
            (name, "timed.linear_speedup")
            for name in sorted(bench.BENCHMARK_NAMES)
        ]

    def test_improvements_pass(self):
        candidate = stated_record(median=50.0, share=0.0, speedup=40.0)
        assert self.regressions(candidate) == []


class TestBenchCLI:
    @pytest.fixture
    def suite(self, smoke_record, monkeypatch):
        """``bench run`` hands back the module's smoke record instead of
        running the suite again."""
        monkeypatch.setattr(
            bench, "run_suite",
            lambda scale, label, progress: dataclasses.replace(
                smoke_record, label=label
            ),
        )

    def test_run_json_validates(self, suite, capsys):
        assert main(["bench", "run", "--scale", "smoke", "--json"]) == 0
        out = capsys.readouterr().out
        record = bench.BenchRecord.loads(out)
        assert record.scale == "smoke"

    def test_run_prints_every_benchmark(self, suite, capsys):
        assert main(["bench", "run", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        for name in bench.BENCHMARK_NAMES:
            assert name in out

    def test_compare_exit_codes_on_stated_records(self, tmp_path, capsys):
        trajectory = str(tmp_path)
        bench.append_record(stated_record(), trajectory)
        for median, code in ((112.0, 0), (113.0, 1)):
            candidate = tmp_path / ("candidate-%d.json" % median)
            bench.write_record(
                stated_record(median=median, share=0.03), str(candidate)
            )
            assert main(
                ["bench", "compare", "--dir", trajectory,
                 "--candidate", str(candidate)]
            ) == code
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_without_baseline_is_usage_error(self, tmp_path, capsys):
        assert main(["bench", "compare", "--dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_run_out_writes_record(self, suite, tmp_path, capsys):
        out_path = tmp_path / "BENCH_PR.json"
        assert main(
            ["bench", "run", "--scale", "smoke", "--out", str(out_path)]
        ) == 0
        assert bench.load_record(str(out_path)).scale == "smoke"
