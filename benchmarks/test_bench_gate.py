"""The bench gate against real measurements: a 1.3x slowdown is caught.

These checks slow down a record the smoke suite really measured, so
whether 1.3x clears the gate depends on the spread the machine measured
on that run: a loaded machine can measure more.  That makes them a
check of the gate on the machine that runs ``make bench``, not a unit
test; ``tests/test_bench_cli.py`` checks the gate's arithmetic on
stated records.
"""

from repro import bench
from repro.__main__ import main

from tests.test_bench_cli import slow_down, smoke_record, smoke_records  # noqa: F401


class TestCompare:
    def test_latency_regression_is_caught(self, smoke_record):
        report = bench.compare_records(smoke_record, slow_down(smoke_record))
        assert not report.ok
        assert any(v.metric.startswith("timed.") for v in report.regressions)


class TestBenchCLI:
    def test_record_then_compare_pass_and_fail(
        self, smoke_records, tmp_path, capsys
    ):
        first, second = smoke_records
        trajectory = str(tmp_path)
        bench.append_record(first, trajectory)
        good = tmp_path / "candidate-good.json"
        bench.write_record(second, str(good))
        assert main(
            ["bench", "compare", "--dir", trajectory,
             "--candidate", str(good)]
        ) == 0
        bad = tmp_path / "candidate-bad.json"
        bench.write_record(slow_down(first), str(bad))
        assert main(
            ["bench", "compare", "--dir", trajectory,
             "--candidate", str(bad)]
        ) == 1
        assert "REGRESSED" in capsys.readouterr().out
