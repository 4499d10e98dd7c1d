"""Unit tests for decision caching in the compiled enforcement engine.

The compiled engine memoizes time-stable decisions in per-subject
tables; these tests pin its cache semantics: repeat hits, per-subject
misses, auditing of served rows, invalidation on rule mutation, the
time-sensitivity gate, bounds, and the brownout bypass.
"""

import pytest

from repro.core.enforcement import compiled as compiled_module
from repro.core.enforcement.compiled import CompiledEnforcementEngine, time_stable
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, RequesterKind
from repro.core.policy.conditions import EvaluationContext
from repro.spatial.model import build_simple_building


def request(timestamp=100.0, subject="mary", **overrides):
    defaults = dict(
        requester_id="concierge",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id=subject,
        space_id="b-1001",
        timestamp=timestamp,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


@pytest.fixture
def engine():
    spatial = build_simple_building("b", 2, 4)
    engine = CompiledEnforcementEngine(context=EvaluationContext(spatial=spatial))
    engine.store.add_policy(catalog.policy_service_sharing("b"))
    return engine


class TestCaching:
    def test_repeat_requests_hit(self, engine):
        a = engine.decide(request(timestamp=100.0))
        b = engine.decide(request(timestamp=200.0))
        assert a.resolution == b.resolution
        assert engine.stats.hits == 1
        assert engine.stats.misses == 1

    def test_different_subjects_miss(self, engine):
        engine.decide(request(subject="mary"))
        engine.decide(request(subject="bob"))
        assert engine.stats.hits == 0
        assert engine.stats.misses == 2
        assert engine.table_shards == 2

    def test_cached_decisions_still_audited(self, engine):
        engine.decide(request(timestamp=100.0))
        engine.decide(request(timestamp=200.0))
        assert engine.stats.hits == 1
        assert len(engine.audit) == 2
        assert [r.timestamp for r in engine.audit.records()] == [100.0, 200.0]

    def test_preference_submission_invalidates(self, engine):
        before = engine.decide(request())
        assert before.allowed
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        after = engine.decide(request(timestamp=300.0))
        assert not after.allowed, "new preference takes effect immediately"

    def test_policy_removal_invalidates(self, engine):
        assert engine.decide(request()).allowed
        engine.store.remove_policy("policy-service-sharing")
        assert not engine.decide(request(timestamp=300.0)).allowed

    def test_time_sensitive_rules_not_cached(self, engine):
        engine.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        noon = engine.decide(
            request(
                timestamp=12 * 3600.0, category=DataCategory.OCCUPANCY
            )
        )
        evening = engine.decide(
            request(
                timestamp=20 * 3600.0, category=DataCategory.OCCUPANCY
            )
        )
        assert noon.allowed
        assert not evening.allowed, "temporal preference must be re-evaluated"
        assert engine.stats.uncacheable >= 2
        assert engine.table_rows == 0

    def test_equivalence_with_uncached_engine(self, engine):
        spatial = build_simple_building("b", 2, 4)
        plain = EnforcementEngine(context=EvaluationContext(spatial=spatial))
        plain.store.add_policy(catalog.policy_service_sharing("b"))
        plain.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        engine.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        for hour in (8, 12, 19, 23):
            for category in (DataCategory.LOCATION, DataCategory.OCCUPANCY):
                for _ in range(2):  # second pass exercises table hits
                    req = request(timestamp=hour * 3600.0, category=category)
                    assert (
                        engine.decide(req).resolution == plain.decide(req).resolution
                    )
        assert engine.stats.hits > 0

    def test_capacity_eviction(self, monkeypatch):
        monkeypatch.setattr(compiled_module, "MAX_SHARDS", 2)
        spatial = build_simple_building("b", 2, 4)
        engine = CompiledEnforcementEngine(
            context=EvaluationContext(spatial=spatial)
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        for index in range(5):
            engine.decide(request(subject="user-%d" % index))
        assert engine.table_shards <= 2
        assert engine.table_rows <= 2

    def test_stats_shape(self, engine):
        engine.decide(request())
        engine.decide(request(timestamp=999.0))
        stats = engine.table_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["uncacheable"] == 0
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["shards"] == 1
        assert stats["rows"] == 1


class TestCompiledBrownoutBypass:
    """Noted (brownout-degraded) decisions bypass the compiled table in
    both directions."""

    @pytest.fixture
    def compiled(self):
        from repro.obs.metrics import MetricsRegistry

        spatial = build_simple_building("b", 2, 4)
        engine = EnforcementEngine(
            context=EvaluationContext(spatial=spatial),
            metrics=MetricsRegistry(),
            compiled=True,
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        return engine

    def test_noted_decision_is_never_compiled(self, compiled):
        noted = compiled.decide(request(), notes=("brownout: degraded",))
        assert "brownout: degraded" in noted.resolution.reasons
        assert compiled.table_rows == 0
        assert compiled.stats.hits == 0

    def test_warm_row_never_serves_a_noted_request(self, compiled):
        plain = compiled.decide(request())
        assert compiled.table_rows == 1
        noted = compiled.decide(
            request(timestamp=200.0), notes=("brownout: degraded",)
        )
        assert compiled.stats.hits == 0, "noted decide must not consult the table"
        assert "brownout: degraded" in noted.resolution.reasons
        assert "brownout: degraded" not in plain.resolution.reasons
        again = compiled.decide(request(timestamp=300.0))
        assert compiled.stats.hits == 1
        assert again.resolution == plain.resolution, (
            "the compiled row must not absorb the brownout note"
        )

    def test_time_stable_module_helper_matches_cacheable(self, compiled):
        """time_stable over the matcher's candidates agrees with whether
        the engine compiles a row for the request."""
        compiled.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        stable = request(category=DataCategory.LOCATION)
        unstable = request(category=DataCategory.OCCUPANCY)
        assert time_stable(*compiled._matcher.candidates(stable))
        assert not time_stable(*compiled._matcher.candidates(unstable))
        compiled.decide(stable)
        assert (compiled.stats.misses, compiled.stats.uncacheable) == (1, 0)
        compiled.decide(unstable)
        assert (compiled.stats.misses, compiled.stats.uncacheable) == (1, 1)
        assert compiled.table_rows == 1
