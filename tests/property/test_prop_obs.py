"""Property tests for the observability layer.

Mirrors the round-trip idiom of ``test_prop_documents.py``: snapshots
must reconstruct losslessly.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)

samples = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(samples, max_size=80)
bucket_sets = st.sampled_from(
    [DEFAULT_LATENCY_BUCKETS, DEFAULT_COUNT_BUCKETS, (1.0, 2.0, 4.0, 8.0)]
)

label_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_"),
    min_size=1,
    max_size=12,
)
label_dicts = st.dictionaries(label_names, label_names, max_size=3)


def build_histogram(values, boundaries):
    histogram = Histogram("h", boundaries=boundaries)
    for value in values:
        histogram.observe(value)
    return histogram


@settings(max_examples=100, deadline=None)
@given(values=sample_lists, boundaries=bucket_sets)
def test_histogram_snapshot_round_trip(values, boundaries):
    histogram = build_histogram(values, boundaries)
    restored = Histogram.from_snapshot("h", (), histogram.snapshot())
    assert restored.snapshot() == histogram.snapshot()


counter_ops = st.lists(
    st.tuples(label_names, label_dicts, st.integers(min_value=0, max_value=1000)),
    max_size=20,
)
gauge_ops = st.lists(
    st.tuples(label_names, label_dicts, st.floats(-1e6, 1e6, allow_nan=False)),
    max_size=20,
)
histogram_ops = st.lists(
    st.tuples(label_names, label_dicts, sample_lists, bucket_sets),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(counters=counter_ops, gauges=gauge_ops, histograms=histogram_ops)
def test_registry_snapshot_restore_round_trip(counters, gauges, histograms):
    registry = MetricsRegistry()
    for name, labels, amount in counters:
        registry.counter(name, labels).inc(amount)
    for name, labels, value in gauges:
        registry.gauge(name, labels).set(value)
    for name, labels, values, boundaries in histograms:
        histogram = registry.histogram(name, labels, boundaries)
        for value in values:
            histogram.observe(value)
    snapshot = registry.snapshot()
    assert MetricsRegistry.restore(snapshot).snapshot() == snapshot


@settings(max_examples=60, deadline=None)
@given(counters=counter_ops)
def test_registry_totals_match_snapshot(counters):
    registry = MetricsRegistry()
    for name, labels, amount in counters:
        registry.counter(name, labels).inc(amount)
    snapshot = registry.snapshot()
    by_name: dict = {}
    for entry in snapshot["counters"]:
        by_name[entry["name"]] = by_name.get(entry["name"], 0) + entry["value"]
    for name, expected in by_name.items():
        assert registry.total(name) == expected
