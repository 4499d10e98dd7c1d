"""The versioned ``BENCH_<n>.json`` record schema.

One record is one run of the scale-benchmark suite (the library twins
of ``benchmarks/test_scale_*``).  Each benchmark entry holds two maps:

- ``timed``: name -> ``{median, iqr}`` over the suite's fixed number of
  repeats.  Values are probe-normalized microseconds per op, or ratios
  of two such times taken in the same run (``*_speedup``, higher is
  better).
- ``counted``: name -> number.  Rates, WAL bytes and the workload's
  counts; each is seeded, so every repeat and every run agrees exactly.

Records are committed to the repo as ``BENCH_0001.json``, ... -- the
recorded perf trajectory (see ``docs/BENCHMARKS.md``).  Only records of
the current version are loaded; older ones stay in the repo as history.

Design constraints:

- **Versioned and validated.**  ``BENCH_SCHEMA_VERSION`` is checked
  before anything else; a record from another build is rejected, never
  misread.  Every number is validated on load *and* dump -- NaN,
  infinities and negative values cannot enter the trajectory.
- **Deterministic serialization.**  ``dumps`` is sorted-key indented
  JSON with a trailing newline, so records diff cleanly in review.
- **Stdlib only**, like the rest of the tree.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.errors import BenchError

#: Bump when the record shape changes; ``from_dict`` rejects others.
BENCH_SCHEMA_VERSION = 2

#: Every record carries exactly these benchmarks -- the library twins
#: of the ``benchmarks/test_scale_*`` suite, in SCALE order.
BENCHMARK_NAMES: Tuple[str, ...] = (
    "scale_enforcement",
    "scale_ingest",
    "scale_notifications",
    "scale_week",
    "scale_overload",
    "scale_federate",
    "scale_rebalance",
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(message)


def _finite(value: Any, name: str) -> float:
    """``value`` as a float, rejecting NaN, infinities and negatives."""
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        "%s must be a number, got %r" % (name, value),
    )
    _require(math.isfinite(value), "%s must be finite, got %r" % (name, value))
    _require(value >= 0, "%s must be >= 0, got %g" % (name, value))
    return value


def _non_negative_int(value: Any, name: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        "%s must be an integer, got %r" % (name, value),
    )
    _require(value >= 0, "%s must be >= 0, got %d" % (name, value))
    return value


def _mapping(value: Any, name: str) -> Mapping[str, Any]:
    _require(isinstance(value, Mapping), "%s must be an object" % name)
    for key in value:
        _require(
            isinstance(key, str) and bool(key),
            "%s keys must be non-empty strings" % name,
        )
    return value


@dataclass(frozen=True)
class Timed:
    """The median and interquartile range of one timed metric's repeats."""

    median: float
    iqr: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Timed":
        q1, median, q3 = statistics.quantiles(samples, n=4)
        return cls(median=median, iqr=q3 - q1)

    @property
    def share(self) -> float:
        """The spread as a share of the median."""
        return self.iqr / self.median

    def validate(self, context: str) -> None:
        _require(
            _finite(self.median, "%s.median" % context) > 0,
            "%s.median must be > 0" % context,
        )
        _finite(self.iqr, "%s.iqr" % context)


@dataclass(frozen=True)
class BenchmarkEntry:
    """One benchmark's metrics inside a record."""

    name: str
    timed: Dict[str, Timed]
    counted: Dict[str, float]

    def validate(self) -> None:
        context = "benchmarks[%s]" % self.name
        _require(bool(self.name), "benchmark name must be non-empty")
        _require(bool(self.timed), "%s times nothing" % context)
        for key, value in _mapping(self.timed, context + ".timed").items():
            value.validate("%s.timed[%s]" % (context, key))
        for key, value in _mapping(self.counted, context + ".counted").items():
            _finite(value, "%s.counted[%s]" % (context, key))
            if key.endswith("_rate"):
                _require(
                    value <= 1, "%s.counted[%s] must be <= 1" % (context, key)
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "timed": {
                key: {"median": value.median, "iqr": value.iqr}
                for key, value in sorted(self.timed.items())
            },
            "counted": dict(sorted(self.counted.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], name: str) -> "BenchmarkEntry":
        context = "benchmarks[%s]" % name
        _require(isinstance(data, Mapping), "%s must be an object" % context)
        _require(
            data.get("name") == name,
            "%s: entry name %r disagrees with its key" % (context, data.get("name")),
        )
        timed = {}
        for key, value in _mapping(data.get("timed"), context + ".timed").items():
            value = _mapping(value, "%s.timed[%s]" % (context, key))
            _require(
                "median" in value and "iqr" in value,
                "%s.timed[%s] needs a median and an iqr" % (context, key),
            )
            timed[key] = Timed(median=value["median"], iqr=value["iqr"])
        entry = cls(
            name=name,
            timed=timed,
            counted=dict(_mapping(data.get("counted"), context + ".counted")),
        )
        entry.validate()
        return entry


@dataclass(frozen=True)
class BenchRecord:
    """One point on the perf trajectory: a full suite run."""

    version: int
    record_id: int
    scale: str
    label: str
    peak_rss_kb: int
    benchmarks: Dict[str, BenchmarkEntry]

    def validate(self) -> None:
        _check_version(self.version)
        _non_negative_int(self.record_id, "record_id")
        _require(bool(self.scale), "scale must be a non-empty string")
        _require(isinstance(self.label, str), "label must be a string")
        _non_negative_int(self.peak_rss_kb, "peak_rss_kb")
        missing = [n for n in BENCHMARK_NAMES if n not in self.benchmarks]
        _require(not missing, "record is missing benchmarks: %s" % ", ".join(missing))
        unknown = [n for n in self.benchmarks if n not in BENCHMARK_NAMES]
        _require(not unknown, "record has unknown benchmarks: %s" % ", ".join(unknown))
        for name, entry in self.benchmarks.items():
            _require(
                entry.name == name,
                "benchmarks[%s] entry is named %r" % (name, entry.name),
            )
            entry.validate()

    def to_dict(self) -> Dict[str, Any]:
        self.validate()
        return {
            "version": self.version,
            "record_id": self.record_id,
            "scale": self.scale,
            "label": self.label,
            "peak_rss_kb": self.peak_rss_kb,
            "benchmarks": {
                name: self.benchmarks[name].to_dict() for name in BENCHMARK_NAMES
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        _require(isinstance(data, Mapping), "bench record must be a JSON object")
        # Version gate first: nothing else is interpreted before it.
        _require("version" in data, "bench record is missing 'version'")
        _check_version(data["version"])
        for key in ("record_id", "scale", "benchmarks"):
            _require(key in data, "bench record is missing %r" % key)
        benchmarks_raw = data["benchmarks"]
        _require(
            isinstance(benchmarks_raw, Mapping),
            "bench record 'benchmarks' must be an object",
        )
        record = cls(
            version=data["version"],
            record_id=_non_negative_int(data["record_id"], "record_id"),
            scale=str(data["scale"]),
            label=str(data.get("label", "")),
            peak_rss_kb=_non_negative_int(
                data.get("peak_rss_kb", 0), "peak_rss_kb"
            ),
            benchmarks={
                str(name): BenchmarkEntry.from_dict(entry, str(name))
                for name, entry in benchmarks_raw.items()
            },
        )
        record.validate()
        return record

    def dumps(self) -> str:
        """Deterministic sorted-key JSON, trailing newline included."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "BenchRecord":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise BenchError("bench record is not valid JSON: %s" % error)
        return cls.from_dict(data)


def _check_version(version: Any) -> None:
    _require(
        type(version) is int and version == BENCH_SCHEMA_VERSION,
        "unknown bench record version %r (this build understands %d)"
        % (version, BENCH_SCHEMA_VERSION),
    )
