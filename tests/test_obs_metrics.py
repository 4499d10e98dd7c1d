"""Unit tests for the metrics registry: counters, gauges, histograms."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_and_labels_share_a_counter(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"target": "tippers", "method": "locate"})
        # Label order must not matter.
        b = registry.counter("c", {"method": "locate", "target": "tippers"})
        assert a is b

    def test_distinct_labels_are_distinct_counters(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"effect": "allow"})
        b = registry.counter("c", {"effect": "deny"})
        a.inc(3)
        b.inc(1)
        assert a.value == 3 and b.value == 1
        assert registry.total("c") == 4
        assert registry.total("c", {"effect": "allow"}) == 3

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_float_increments_allowed(self):
        counter = MetricsRegistry().counter("seconds_total")
        counter.inc(0.25)
        counter.inc(0.75)
        assert counter.value == pytest.approx(1.0)


class Lookups:
    """A stand-in component stats struct for ``MetricsRegistry.track``."""

    FIELDS = {
        "hits": ("lookups_total", {"result": "hit"}),
        "misses": ("lookups_total", {"result": "miss"}),
    }

    def __init__(self, hits=0, misses=0):
        self.hits = hits
        self.misses = misses


class TestTrack:
    def test_reads_structs_and_sums_a_shared_key(self):
        registry = MetricsRegistry()
        stats = Lookups()
        registry.track(stats, Lookups.FIELDS)
        registry.track(Lookups(hits=5), Lookups.FIELDS)
        registry.counter("lookups_total", {"result": "miss"}).inc(4)
        stats.hits += 2
        stats.misses += 1
        assert registry.total("lookups_total", {"result": "hit"}) == 7
        assert registry.total("lookups_total") == 12
        assert [e["value"] for e in registry.snapshot()["counters"]] == [7, 5]
        assert registry.render()[0].split() == ["counter", "lookups_total{result=hit}", "7"]
        assert len(registry) == 2


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("cache_size")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_labeled_gauges_independent(self):
        registry = MetricsRegistry()
        registry.gauge("g", {"zone": "a"}).set(1)
        registry.gauge("g", {"zone": "b"}).set(2)
        assert registry.gauge("g", {"zone": "a"}).value == 1


class TestHandleMemo:
    def test_label_insertion_order_returns_the_same_handle(self):
        registry = MetricsRegistry()
        for lookup in (registry.counter, registry.gauge, registry.histogram):
            a = lookup("m", {"target": "tippers", "class": "normal"})
            b = lookup("m", {"class": "normal", "target": "tippers"})
            assert a is b
            assert lookup("m", {"class": "normal", "target": "tippers"}) is b

    def test_int_and_str_label_values_resolve_to_one_metric(self):
        registry = MetricsRegistry()
        registry.counter("c", {"shard": 1}).inc()
        registry.counter("c", {"shard": "1"}).inc()
        registry.counter("c", {"shard": 1}).inc()
        assert registry.counter("c", {"shard": "1"}).value == 3
        assert len(registry) == 1

    def test_equal_values_that_render_differently_stay_apart(self):
        registry = MetricsRegistry()
        registry.counter("c", {"ok": 1}).inc()
        registry.counter("c", {"ok": True}).inc(2)
        assert registry.counter("c", {"ok": "1"}).value == 1
        assert registry.counter("c", {"ok": "True"}).value == 2

    def test_reset_clears_the_memo(self):
        registry = MetricsRegistry()
        stale = registry.counter("c", {"k": "v"})
        stale.inc(5)
        registry.reset()
        fresh = registry.counter("c", {"k": "v"})
        assert fresh is not stale
        assert fresh.value == 0

    def test_histogram_boundaries_from_the_first_creation_win(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", {"k": "v"}, boundaries=(1.0, 2.0))
        again = registry.histogram("h", {"k": "v"}, boundaries=(5.0,))
        assert again is first
        assert again.boundaries == (1.0, 2.0)


class TestHistogram:
    def test_percentiles_exact_at_bucket_boundaries(self):
        # Samples placed exactly on the bucket bounds must come back
        # exactly: a sample at bound b lands in the bucket whose upper
        # bound is b, and the estimator reports that upper bound.
        histogram = Histogram("h", boundaries=(1.0, 2.0, 4.0, 8.0))
        for value in (1.0, 1.0, 2.0, 4.0):
            histogram.observe(value)
        assert histogram.percentile(25) == 1.0
        assert histogram.percentile(50) == 1.0
        assert histogram.percentile(75) == 2.0
        assert histogram.percentile(95) == 4.0
        assert histogram.percentile(100) == 4.0

    def test_percentile_of_overflow_bucket_is_observed_max(self):
        histogram = Histogram("h", boundaries=(1.0, 2.0))
        histogram.observe(50.0)
        assert histogram.percentile(99) == 50.0

    def test_percentile_clamped_to_max_within_bucket(self):
        # 0.3 lands in the (0.25, 0.5] bucket; the raw estimate 0.5 is
        # clamped to the observed max so it never exceeds reality.
        histogram = Histogram("h", boundaries=(0.25, 0.5, 1.0))
        histogram.observe(0.3)
        assert histogram.percentile(50) == 0.3

    def test_empty_percentile_is_none(self):
        assert Histogram("h", boundaries=(1.0,)).percentile(50) is None

    def test_invalid_percentile_rejected(self):
        histogram = Histogram("h", boundaries=(1.0,))
        histogram.observe(0.5)
        with pytest.raises(ValueError):
            histogram.percentile(0)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_count_sum_min_max(self):
        histogram = Histogram("h", boundaries=DEFAULT_COUNT_BUCKETS)
        for value in (3, 1, 4, 1, 5):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == 14
        assert histogram.min == 1
        assert histogram.max == 5
        assert histogram.mean == pytest.approx(2.8)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(1.0,)).observe(float("nan"))

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())

    def test_default_latency_buckets_strictly_increasing(self):
        bounds = DEFAULT_LATENCY_BUCKETS
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(10.0)


class TestRegistrySnapshot:
    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c", {"k": "v"}).inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h", boundaries=(1.0, 2.0)).observe(1.5)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed["counters"][0]["value"] == 2

    def test_restore_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c", {"k": "v"}).inc(2)
        registry.gauge("g").set(-3)
        histogram = registry.histogram("h", boundaries=(1.0, 2.0, 4.0))
        histogram.observe(0.5)
        histogram.observe(3.0)
        restored = MetricsRegistry.restore(registry.snapshot())
        assert restored.snapshot() == registry.snapshot()
        assert restored.histogram("h", boundaries=(1.0, 2.0, 4.0)).percentile(
            50
        ) == histogram.percentile(50)

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.track(Lookups(hits=2), Lookups.FIELDS)
        registry.reset()
        assert len(registry) == 0
        assert registry.total("lookups_total") == 0


class TestRender:
    def test_render_shows_percentiles(self):
        registry = MetricsRegistry()
        registry.counter("bus_calls_total", {"target": "tippers"}).inc(3)
        histogram = registry.histogram("decide_seconds", boundaries=(0.001, 0.01))
        histogram.observe(0.0005)
        lines = "\n".join(registry.render())
        assert "bus_calls_total{target=tippers}" in lines
        assert "p50=" in lines and "p95=" in lines and "p99=" in lines

    def test_empty_histogram_renders_count_zero(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        assert "count=0" in registry.render()[0]


class TestDefaultRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestEnforcementMetricCompatibility:
    """The compiled engine must emit the reference engine's metric
    families with identical names and label keys -- dashboards keyed on
    enforcement_decisions_total{effect=...} and
    enforcement_decide_seconds must not notice the switch -- and its new
    table metrics carry only the documented result labels."""

    @staticmethod
    def _build(compiled):
        from repro.core.enforcement.engine import EnforcementEngine
        from repro.core.language.vocabulary import DataCategory, Purpose
        from repro.core.policy import catalog
        from repro.core.policy.base import (
            DataRequest,
            DecisionPhase,
            RequesterKind,
        )

        registry = MetricsRegistry()
        engine = EnforcementEngine(metrics=registry, compiled=compiled)
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        for timestamp in (100.0, 200.0):
            engine.decide(
                DataRequest(
                    requester_id="svc",
                    requester_kind=RequesterKind.BUILDING_SERVICE,
                    phase=DecisionPhase.SHARING,
                    category=DataCategory.LOCATION,
                    subject_id="mary",
                    space_id=None,
                    timestamp=timestamp,
                    purpose=Purpose.PROVIDING_SERVICE,
                )
            )
        return registry

    @staticmethod
    def _families(registry, prefix):
        families = {}
        snapshot = registry.snapshot()
        for kind in ("counters", "gauges", "histograms"):
            for entry in snapshot[kind]:
                if entry["name"].startswith(prefix):
                    families.setdefault(entry["name"], set()).add(
                        tuple(sorted(entry["labels"]))
                    )
        return families

    def test_shared_families_have_identical_label_keys(self):
        reference = self._families(self._build(compiled=False), "enforcement_")
        compiled = self._families(self._build(compiled=True), "enforcement_")
        for name, label_keys in reference.items():
            assert compiled.get(name) == label_keys, (
                "compiled engine changed labels of %s" % name
            )

    def test_decision_counter_totals_match(self):
        reference = self._build(compiled=False)
        compiled = self._build(compiled=True)
        assert compiled.total("enforcement_decisions_total") == reference.total(
            "enforcement_decisions_total"
        )
        assert (
            compiled.histogram("enforcement_decide_seconds").count
            == reference.histogram("enforcement_decide_seconds").count
        )

    def test_table_metrics_use_documented_result_labels(self):
        registry = self._build(compiled=True)
        families = self._families(registry, "enforcement_table_")
        assert families["enforcement_table_total"] == {("result",)}
        assert families["enforcement_table_shards"] == {()}
        assert families["enforcement_table_rows"] == {()}
        assert families["enforcement_table_invalidations_total"] == {()}
        results = {
            entry["labels"]["result"]
            for entry in registry.snapshot()["counters"]
            if entry["name"] == "enforcement_table_total"
        }
        assert results == {"hit", "miss", "uncacheable"}
        assert registry.total("enforcement_table_total", {"result": "hit"}) == 1
        assert registry.total("enforcement_table_total", {"result": "miss"}) == 1
