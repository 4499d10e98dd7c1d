"""Unit tests for the BENCH_<n>.json record schema.

A bench record is a committed artifact other builds must be able to
trust, so the schema's job is mostly *rejection*: unknown versions,
NaN/negative timings or counts, negative spreads, rates above 1,
missing benchmarks, and malformed JSON all raise :class:`BenchError`
before any number is believed.
"""

import json
import math

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BENCHMARK_NAMES,
    BenchmarkEntry,
    BenchRecord,
    Timed,
)
from repro.errors import BenchError


def make_entry(name, **overrides):
    fields = dict(
        name=name,
        timed={"us_per_op": Timed(median=10.0, iqr=0.5)},
        counted={"shed_rate": 0.1, "wal_bytes": 4096, "users": 100},
    )
    fields.update(overrides)
    return BenchmarkEntry(**fields)


def make_record(**overrides):
    fields = dict(
        version=BENCH_SCHEMA_VERSION,
        record_id=1,
        scale="ci",
        label="unit-test",
        peak_rss_kb=50000,
        benchmarks={name: make_entry(name) for name in BENCHMARK_NAMES},
    )
    fields.update(overrides)
    return BenchRecord(**fields)


class TestRoundTrip:
    def test_dump_load_round_trip_is_lossless(self):
        record = make_record()
        record.validate()
        loaded = BenchRecord.loads(record.dumps())
        assert loaded == record

    def test_dumps_is_deterministic_and_newline_terminated(self):
        record = make_record()
        text = record.dumps()
        assert text == record.dumps()
        assert text.endswith("\n")
        assert json.loads(text)["version"] == BENCH_SCHEMA_VERSION

    def test_benchmark_name_sets_are_pinned(self):
        # Every benchmark is required: a record carries all seven.
        assert BENCHMARK_NAMES == (
            "scale_enforcement", "scale_ingest", "scale_notifications",
            "scale_week", "scale_overload", "scale_federate",
            "scale_rebalance",
        )

    def test_timed_keeps_the_median_and_interquartile_range(self):
        timed = Timed.of([5.0, 1.0, 4.0, 2.0, 3.0])
        assert timed == Timed(median=3.0, iqr=3.0)
        assert timed.share == pytest.approx(1.0)


class TestVersionGate:
    @pytest.mark.parametrize("version", [0, 1, 3, 99, "2", None, True])
    def test_unknown_versions_are_rejected(self, version):
        data = make_record().to_dict()
        data["version"] = version
        with pytest.raises(BenchError, match="version"):
            BenchRecord.from_dict(data)

    def test_version_is_checked_before_benchmarks(self):
        # A future-version record with an unreadable body must fail on
        # the version, not on the body it has no business interpreting.
        data = {"version": BENCH_SCHEMA_VERSION + 1, "benchmarks": "not-a-map"}
        with pytest.raises(BenchError, match="version"):
            BenchRecord.from_dict(data)

    def test_missing_version_is_rejected(self):
        data = make_record().to_dict()
        del data["version"]
        with pytest.raises(BenchError, match="version"):
            BenchRecord.from_dict(data)


class TestLatencyValidation:
    """A timed metric's median and IQR."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, "10"])
    def test_non_finite_or_negative_latency_is_rejected(self, bad):
        with pytest.raises(BenchError):
            Timed(median=bad, iqr=1.0).validate("test")
        with pytest.raises(BenchError):
            Timed(median=10.0, iqr=bad).validate("test")

    def test_inverted_percentiles_are_rejected(self):
        # The IQR is q3 - q1; a negative one means inverted quartiles.
        with pytest.raises(BenchError, match="iqr"):
            Timed(median=10.0, iqr=-0.5).validate("test")

    def test_empty_distribution_is_rejected(self):
        with pytest.raises(BenchError, match="times nothing"):
            make_entry("scale_ingest", timed={}).validate()

    def test_nan_rejected_through_json_path(self):
        data = make_record().to_dict()
        data["benchmarks"]["scale_ingest"]["timed"]["us_per_op"]["iqr"] = math.nan
        with pytest.raises(BenchError, match="finite"):
            BenchRecord.from_dict(data)


class TestEntryValidation:
    def test_zero_timed_median_is_rejected(self):
        with pytest.raises(BenchError, match="median must be > 0"):
            make_entry(
                "scale_ingest", timed={"us_per_op": Timed(median=0.0, iqr=0.0)}
            ).validate()

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_out_of_range_rates_are_rejected(self, rate):
        with pytest.raises(BenchError):
            make_entry("scale_ingest", counted={"shed_rate": rate}).validate()

    def test_negative_wal_bytes_are_rejected(self):
        with pytest.raises(BenchError, match="wal_bytes"):
            make_entry("scale_ingest", counted={"wal_bytes": -1}).validate()

    def test_entry_name_must_match_its_key(self):
        data = make_record().to_dict()
        data["benchmarks"]["scale_ingest"]["name"] = "scale_other"
        with pytest.raises(BenchError, match="disagrees"):
            BenchRecord.from_dict(data)

    def test_timed_value_needs_median_and_iqr(self):
        data = make_record().to_dict()
        del data["benchmarks"]["scale_ingest"]["timed"]["us_per_op"]["iqr"]
        with pytest.raises(BenchError, match="median and an iqr"):
            BenchRecord.from_dict(data)


class TestRecordValidation:
    def test_missing_benchmark_is_rejected(self):
        for name in ("scale_week", "scale_federate"):
            data = make_record().to_dict()
            del data["benchmarks"][name]
            with pytest.raises(BenchError, match="missing benchmarks"):
                BenchRecord.from_dict(data)

    def test_unknown_benchmark_is_rejected(self):
        benchmarks = {name: make_entry(name) for name in BENCHMARK_NAMES}
        benchmarks["scale_mystery"] = make_entry("scale_mystery")
        with pytest.raises(BenchError, match="unknown benchmarks"):
            make_record(benchmarks=benchmarks).validate()

    def test_negative_record_id_is_rejected(self):
        with pytest.raises(BenchError, match="record_id"):
            make_record(record_id=-1).validate()

    def test_malformed_json_raises_bench_error(self):
        with pytest.raises(BenchError, match="JSON"):
            BenchRecord.loads("{not json")
        with pytest.raises(BenchError):
            BenchRecord.loads("[1, 2, 3]")
