"""Recorded perf trajectory: run, record, and compare bench records.

Quick start::

    from repro import bench

    record = bench.run_suite(scale="ci")          # run the workloads
    numbered, path = bench.append_record(record, ".")  # BENCH_000N.json
    report = bench.compare_records(bench.latest_record("."), record)
    assert report.ok, report.lines()

See ``docs/BENCHMARKS.md`` for the trajectory workflow and the
comparison rules, and ``python -m repro bench --help`` for the CLI.
"""

from repro.bench.compare import (
    ComparisonReport,
    MetricVerdict,
    compare_records,
)
from repro.bench.runner import (
    append_record,
    latest_record,
    list_records,
    load_record,
    peak_rss_kb,
    record_path,
    run_suite,
    write_record,
)
from repro.bench.schema import (
    BENCH_SCHEMA_VERSION,
    BENCHMARK_NAMES,
    BenchmarkEntry,
    BenchRecord,
    Timed,
)
from repro.bench.workloads import SCALES, ScalePreset, resolve_scale

__all__ = [
    "BENCHMARK_NAMES",
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "BenchmarkEntry",
    "ComparisonReport",
    "MetricVerdict",
    "SCALES",
    "ScalePreset",
    "Timed",
    "append_record",
    "compare_records",
    "latest_record",
    "list_records",
    "load_record",
    "peak_rss_kb",
    "record_path",
    "resolve_scale",
    "run_suite",
    "write_record",
]
