"""Dependency-free metrics: counters, gauges, and bounded histograms.

Every subsystem on the Figure-1 path (bus, enforcement engine and its
compiled tables, sensor manager, request manager, admission, IoTA)
reports here.  A count a component keeps in its own stats struct stays
owned by that struct; :meth:`MetricsRegistry.track` reads it whenever
the registry reports.  Other metrics are handles resolved once and
updated with plain attribute arithmetic, so the registry can sit on the
per-decision hot path without moving the benchmarks.

Design constraints:

- **No dependencies.**  Pure stdlib; snapshots are plain dicts that
  ``json.dumps`` accepts unmodified.
- **Bounded memory.**  Histograms keep fixed-size bucket counts (plus
  count/sum/min/max), never raw samples, so a week-long simulation
  cannot grow them.
- **Deterministic percentiles.**  ``Histogram.percentile`` is a pure
  function of the bucket counts and the observed min/max, which makes
  merged histograms agree exactly with histograms built from the
  concatenated samples (a property the test suite pins).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

LabelPairs = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelPairs]
#: A tracked struct's fields: attribute -> (counter name, labels).
TrackedFields = Mapping[str, Tuple[str, Mapping[str, str]]]
#: (kind, name, label items in the caller's order): the handle memo key.
HandleKey = Tuple[str, str, LabelPairs]

#: Version stamp carried by every :meth:`MetricsRegistry.snapshot`.
#: Consumers (the bench trajectory, ``REPRO_METRICS_OUT`` diffing) key
#: their parsers off it; :meth:`MetricsRegistry.restore` rejects
#: versions it does not understand.
SNAPSHOT_SCHEMA_VERSION = 1

#: Upper bucket bounds for latency-shaped histograms, in seconds:
#: geometric from 1 microsecond to 10 seconds (4 buckets per decade).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(1e-6 * 10 ** (i / 4.0), 12) for i in range(29)
)

#: Upper bucket bounds for small-count histograms (rules evaluated,
#: results per query, ...).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0,
    144.0, 233.0, 377.0, 610.0, 1000.0, 10000.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelPairs) -> Dict[str, str]:
    return {k: v for k, v in key}


class Counter:
    """A monotonically non-decreasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counter %r cannot decrease" % self.name)
        self.value += amount


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with exact-at-boundary percentiles.

    ``boundaries`` are *upper* bucket bounds; a sample ``v`` lands in
    the first bucket whose bound is >= ``v``, with one overflow bucket
    past the last bound.  Memory is O(len(boundaries)) regardless of
    how many samples are observed.
    """

    __slots__ = ("name", "labels", "boundaries", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not boundaries:
            raise ValueError("histogram %r needs at least one bucket bound" % name)
        bounds = tuple(float(b) for b in boundaries)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram %r bounds must be strictly increasing" % name)
        self.name = name
        self.labels = labels
        self.boundaries = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("histogram %r cannot observe NaN" % self.name)
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, p: float) -> Optional[float]:
        """The p-th percentile estimate, exact for boundary-valued samples.

        Returns the upper bound of the bucket holding the rank-``p``
        sample, clamped to the observed maximum (so the overflow bucket
        never reports infinity).  ``None`` when empty.
        """
        if self.count == 0:
            return None
        if not 0 < p <= 100:
            raise ValueError("percentile must lie in (0, 100]")
        rank = max(1, math.ceil(self.count * p / 100.0))
        cumulative = 0
        estimate = self.boundaries[-1]
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.boundaries):
                    estimate = self.boundaries[index]
                else:
                    estimate = self.max if self.max is not None else self.boundaries[-1]
                break
        assert self.max is not None
        return min(estimate, self.max)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def summary(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, object]:
        """A flat JSON-able percentile summary of the distribution.

        Unlike :meth:`snapshot` (which keeps raw bucket counts for exact
        merging), this is the export shape perf records want: count,
        mean, min/max, and one ``p<N>`` key per requested percentile.
        Empty histograms summarize to ``count=0`` with ``None`` values.
        """
        result: Dict[str, object] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for p in percentiles:
            key = "p%g" % p
            result[key] = self.percentile(p) if self.count else None
        return result

    def snapshot(self) -> Dict[str, object]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_snapshot(
        cls, name: str, labels: LabelPairs, data: Mapping[str, object]
    ) -> "Histogram":
        histogram = cls(name, labels, data["boundaries"])  # type: ignore[arg-type]
        histogram.counts = [int(c) for c in data["counts"]]  # type: ignore[union-attr]
        histogram.count = int(data["count"])  # type: ignore[arg-type]
        histogram.sum = float(data["sum"])  # type: ignore[arg-type]
        histogram.min = None if data["min"] is None else float(data["min"])  # type: ignore[arg-type]
        histogram.max = None if data["max"] is None else float(data["max"])  # type: ignore[arg-type]
        return histogram


class MetricsRegistry:
    """Owns every metric of one deployment (or one test).

    Handle lookups are memoized by the label items exactly as passed,
    so a call site that rebuilds the same label dict on every call pays
    one dict lookup, not a sort.  A miss resolves the canonical sorted
    key and gets or creates the metric as usual; it is memoized only
    when every label key and value is a ``str``, so values that compare
    equal but render differently (``1``, ``1.0`` and ``True``) never
    share a memo entry.
    """

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._handles: Dict[HandleKey, Any] = {}
        self._tracked: List[Tuple[object, List[Tuple[str, MetricKey]]]] = []

    # ------------------------------------------------------------------
    # Handles (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Counter:
        memo = ("counter", name, tuple(labels.items()) if labels else ())
        counter = self._handles.get(memo)
        if counter is None:
            counter = self._resolve(memo, labels, self._counters, Counter)
        return counter

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        memo = ("gauge", name, tuple(labels.items()) if labels else ())
        gauge = self._handles.get(memo)
        if gauge is None:
            gauge = self._resolve(memo, labels, self._gauges, Gauge)
        return gauge

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        memo = ("histogram", name, tuple(labels.items()) if labels else ())
        histogram = self._handles.get(memo)
        if histogram is None:
            histogram = self._resolve(
                memo,
                labels,
                self._histograms,
                partial(Histogram, boundaries=boundaries),
            )
        return histogram

    def _resolve(
        self,
        memo: HandleKey,
        labels: Optional[Mapping[str, str]],
        store: Dict[MetricKey, Any],
        create: Callable[[str, LabelPairs], Any],
    ) -> Any:
        """A memo miss: get or create by the canonical key, then memoize."""
        key = (memo[1], _label_key(labels))
        handle = store.get(key)
        if handle is None:
            handle = store[key] = create(*key)
        if all(type(k) is str and type(v) is str for k, v in memo[2]):
            self._handles[memo] = handle
        return handle

    def track(self, stats: object, fields: TrackedFields) -> None:
        """Report attributes of ``stats`` as counters.

        ``stats`` stays the only owner of those counts: the registry
        reads ``getattr(stats, attr)`` each time it reports, adding it
        to any interned counter or other tracked struct under the same
        key.  Pass the struct, not its component, so the registry never
        keeps an engine, table or log alive.
        """
        self._tracked.append((stats, [
            (attr, (name, _label_key(labels)))
            for attr, (name, labels) in fields.items()
        ]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _counter_values(self) -> Dict[MetricKey, float]:
        """Every counter's current value, tracked struct fields included."""
        values = {key: counter.value for key, counter in self._counters.items()}
        for stats, fields in self._tracked:
            for attr, key in fields:
                values[key] = values.get(key, 0) + getattr(stats, attr)
        return values

    def total(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """Sum of every counter named ``name`` whose labels ⊇ ``labels``."""
        subset = set(_label_key(labels))
        total = 0.0
        for (metric_name, label_key), value in self._counter_values().items():
            if metric_name == name and subset <= set(label_key):
                total += value
        return total

    def __len__(self) -> int:
        return len(self._counter_values()) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable, deterministic view of every metric."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "counters": [
                {"name": name, "labels": _labels_dict(labels), "value": value}
                for (name, labels), value in sorted(self._counter_values().items())
            ],
            "gauges": [
                {"name": name, "labels": _labels_dict(labels), "value": g.value}
                for (name, labels), g in sorted(self._gauges.items())
            ],
            "histograms": [
                dict(
                    {"name": name, "labels": _labels_dict(labels)},
                    **h.snapshot(),
                )
                for (name, labels), h in sorted(self._histograms.items())
            ],
        }

    @classmethod
    def restore(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output.

        Snapshots written before the ``schema`` stamp existed are
        accepted as version 1; anything newer than this build raises.
        """
        schema = int(snapshot.get("schema", SNAPSHOT_SCHEMA_VERSION))  # type: ignore[arg-type]
        if schema != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                "unsupported metrics snapshot schema %d (this build "
                "understands %d)" % (schema, SNAPSHOT_SCHEMA_VERSION)
            )
        registry = cls()
        for entry in snapshot.get("counters", ()):  # type: ignore[union-attr]
            counter = registry.counter(entry["name"], entry.get("labels"))
            counter.value = entry["value"]
        for entry in snapshot.get("gauges", ()):  # type: ignore[union-attr]
            gauge = registry.gauge(entry["name"], entry.get("labels"))
            gauge.value = entry["value"]
        for entry in snapshot.get("histograms", ()):  # type: ignore[union-attr]
            key = (entry["name"], _label_key(entry.get("labels")))
            registry._histograms[key] = Histogram.from_snapshot(
                entry["name"], key[1], entry
            )
        return registry

    def reset(self) -> None:
        """Forget every metric, handle and tracked struct."""
        self._tracked.clear()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._handles.clear()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> List[str]:
        """Human-readable lines, one per metric, deterministically ordered."""
        lines: List[str] = []
        for (name, labels), value in sorted(self._counter_values().items()):
            lines.append(
                "counter   %-46s %s" % (_format_name(name, labels), _format_number(value))
            )
        for (name, labels), gauge in sorted(self._gauges.items()):
            lines.append(
                "gauge     %-46s %s" % (_format_name(name, labels), _format_number(gauge.value))
            )
        for (name, labels), histogram in sorted(self._histograms.items()):
            if histogram.count == 0:
                summary = "count=0"
            else:
                summary = (
                    "count=%d mean=%s p50=%s p95=%s p99=%s max=%s"
                    % (
                        histogram.count,
                        _format_number(histogram.mean),
                        _format_number(histogram.percentile(50)),
                        _format_number(histogram.percentile(95)),
                        _format_number(histogram.percentile(99)),
                        _format_number(histogram.max),
                    )
                )
            lines.append(
                "histogram %-46s %s" % (_format_name(name, labels), summary)
            )
        return lines


def _format_name(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % pair for pair in labels))


def _format_number(value: object) -> str:
    if isinstance(value, float) and not value.is_integer():
        return "%.6g" % value
    return "%d" % int(value)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry components fall back to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
