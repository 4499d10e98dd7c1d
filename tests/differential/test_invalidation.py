"""Invalidation regression tests for the compiled decision table.

The contract under test: a preference mutation evicts exactly the
affected user's shard, a policy mutation evicts everything, and the
per-decide version check keeps the table honest even for mutations
that never touch a listener hook (the historical stale-cache failure
mode these tests pin).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.enforcement import compiled as compiled_module
from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import EvaluationContext, ProfileCondition
from repro.core.policy.building import BuildingPolicy
from repro.obs.metrics import MetricsRegistry
from repro.spatial.model import build_simple_building
from repro.tippers.bms import TIPPERS
from repro.users.profile import UserProfile


def request(subject="mary", timestamp=100.0, **overrides):
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
    engine = CompiledEnforcementEngine(
        context=EvaluationContext(spatial=spatial),
        metrics=MetricsRegistry(),
    )
    engine.store.add_policy(catalog.policy_service_sharing("b"))
    return engine


class TestExactShardEviction:
    def test_preference_mutation_evicts_only_that_user(self, engine):
        engine.decide(request(subject="mary"))
        engine.decide(request(subject="bob"))
        engine.decide(request(subject=None))
        assert engine.table_shards == 3
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        # The stale shard is discovered (and dropped) on mary's next
        # decide; bob's and the subject-less shard serve hits untouched.
        assert not engine.decide(request(subject="mary", timestamp=200.0)).allowed
        assert engine.decide(request(subject="bob", timestamp=200.0)).allowed
        engine.decide(request(subject=None, timestamp=200.0))
        assert engine.stats.hits == 2
        assert engine.table_shards == 3

    def test_withdraw_all_evicts_only_that_user(self, engine):
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        assert not engine.decide(request(subject="mary")).allowed
        engine.decide(request(subject="bob"))
        engine.store.remove_preferences_of("mary")
        assert engine.decide(request(subject="mary", timestamp=200.0)).allowed
        engine.decide(request(subject="bob", timestamp=200.0))
        assert engine.stats.hits == 1, "bob's shard must survive mary's withdrawal"

    def test_policy_mutation_evicts_everything(self, engine):
        engine.decide(request(subject="mary"))
        engine.decide(request(subject="bob"))
        assert engine.table_rows == 2
        engine.store.remove_policy("policy-service-sharing")
        assert not engine.decide(request(subject="mary", timestamp=200.0)).allowed
        assert not engine.decide(request(subject="bob", timestamp=200.0)).allowed
        assert engine.stats.hits == 0

    def test_policy_replacement_takes_effect(self, engine):
        assert engine.decide(request()).allowed
        engine.store.remove_policy("policy-service-sharing")
        replacement = dataclasses.replace(
            catalog.policy_service_sharing("b"), effect=Effect.DENY
        )
        engine.store.add_policy(replacement)
        assert not engine.decide(request(timestamp=200.0)).allowed


class TestStaleTablePin:
    """The bug class this PR's version counters exist to prevent.

    A mutation applied *directly to the store* -- no manager, no
    listener, no hook -- must still never let the table serve a stale
    row.  Disabling the per-decide version check (as a buggy build
    would) makes these exact scenarios serve stale data; the oracle
    comparison here fails loudly in that world.
    """

    def test_direct_store_preference_mutation_never_serves_stale(self, engine):
        reference = EnforcementEngine(
            context=engine.context, metrics=MetricsRegistry()
        )
        reference.store.add_policy(catalog.policy_service_sharing("b"))
        for timestamp in (100.0, 150.0):
            assert (
                engine.decide(request(timestamp=timestamp)).resolution
                == reference.decide(request(timestamp=timestamp)).resolution
            )
        assert engine.stats.hits == 1, "sanity: the row was warm before the mutation"
        opt_out = catalog.preference_2_no_location("mary")
        engine.store.add_preference(opt_out)
        reference.store.add_preference(opt_out)
        fresh = request(timestamp=200.0)
        assert (
            engine.decide(fresh).resolution
            == reference.decide(fresh).resolution
        ), "compiled engine served a stale row after a direct store mutation"

    def test_stale_check_is_per_decide_not_per_hook(self, engine):
        engine.decide(request())
        shard_versions_before = engine.store.preference_versions.get("mary", 0)
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        assert (
            engine.store.preference_versions["mary"] == shard_versions_before + 1
        ), "store mutations must bump the per-user version counter"
        assert engine.table_rows == 1, "eviction is lazy (no hook fired)"
        assert not engine.decide(request(timestamp=200.0)).allowed
        assert engine.stats.hits == 0


class TestManagerHooks:
    def _tippers(self):
        spatial = build_simple_building("b", 2, 4)
        tippers = TIPPERS(
            spatial,
            "b",
            compile_decisions=True,
            metrics=MetricsRegistry(),
        )
        tippers.define_policy(catalog.policy_service_sharing("b"))
        tippers.add_user(UserProfile(user_id="mary", name="Mary"))
        tippers.add_user(UserProfile(user_id="bob", name="Bob"))
        return tippers

    def test_submit_evicts_eagerly(self):
        """The next decide after a submit drops the stale shard."""
        tippers = self._tippers()
        engine = tippers.engine
        engine.decide(request(subject="mary"))
        engine.decide(request(subject="bob"))
        assert engine.table_shards == 2
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        assert not engine.decide(request(subject="mary", timestamp=200.0)).allowed

    def test_withdraw_all_evicts_eagerly(self):
        """The next decide after a withdraw-all drops the stale shard."""
        tippers = self._tippers()
        engine = tippers.engine
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        assert not engine.decide(request(subject="mary")).allowed
        tippers.preference_manager.withdraw_all("mary")
        assert engine.decide(request(subject="mary", timestamp=200.0)).allowed

    def test_add_user_invalidates_profile_conditioned_rows(self):
        """ProfileCondition is compiled into rows (it is not
        time-sensitive), so a directory change must flush the table."""
        spatial = build_simple_building("b", 2, 4)
        tippers = TIPPERS(
            spatial, "b", compile_decisions=True, metrics=MetricsRegistry()
        )
        tippers.define_policy(
            BuildingPolicy(
                policy_id="faculty-only",
                name="faculty only",
                description="share location of faculty members only",
                effect=Effect.ALLOW,
                categories=(DataCategory.LOCATION,),
                phases=(DecisionPhase.SHARING,),
                condition=ProfileCondition(group="faculty"),
            )
        )
        engine = tippers.engine
        assert not engine.decide(request(subject="mary")).allowed
        tippers.add_user(
            UserProfile(
                user_id="mary", name="Mary", groups=frozenset({"faculty"})
            )
        )
        assert engine.decide(request(subject="mary", timestamp=200.0)).allowed, (
            "profile change must not be masked by a stale compiled row"
        )


class TestCapacityBounds:
    def test_max_shards_fifo_eviction(self, monkeypatch):
        monkeypatch.setattr(compiled_module, "MAX_SHARDS", 2)
        spatial = build_simple_building("b", 2, 4)
        engine = CompiledEnforcementEngine(
            context=EvaluationContext(spatial=spatial),
            metrics=MetricsRegistry(),
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        for index in range(5):
            engine.decide(request(subject="user-%d" % index))
        assert engine.table_shards <= 2
        assert engine.table_rows <= 2

    def test_shard_capacity_clears_full_shard(self, monkeypatch):
        monkeypatch.setattr(compiled_module, "SHARD_CAPACITY", 2)
        spatial = build_simple_building("b", 2, 4)
        engine = CompiledEnforcementEngine(
            context=EvaluationContext(spatial=spatial),
            metrics=MetricsRegistry(),
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        for index in range(5):
            engine.decide(request(requester_id="svc-%d" % index))
        assert engine.table_rows <= 2
        assert engine.table_shards == 1


class TestInvalidationMetrics:
    def test_counters_and_gauges_track(self, engine):
        registry = engine.metrics
        engine.decide(request(subject="mary"))
        engine.decide(request(subject="bob"))
        assert registry.gauge("enforcement_table_shards").value == 2
        assert registry.gauge("enforcement_table_rows").value == 2
        engine.invalidate_user("mary")
        assert registry.total("enforcement_table_invalidations_total") == 1
        assert registry.gauge("enforcement_table_shards").value == 1
        assert registry.gauge("enforcement_table_rows").value == 1
        engine.invalidate_all()
        assert registry.total("enforcement_table_invalidations_total") == 2
        assert registry.gauge("enforcement_table_rows").value == 0
        assert engine.table_rows == 0

    def test_hit_miss_uncacheable_counters(self, engine):
        engine.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        registry = engine.metrics
        engine.decide(request(subject="bob"))
        engine.decide(request(subject="bob", timestamp=200.0))
        engine.decide(request(subject="mary", category=DataCategory.OCCUPANCY))
        assert registry.total("enforcement_table_total", {"result": "miss"}) == 1
        assert registry.total("enforcement_table_total", {"result": "hit"}) == 1
        assert (
            registry.total("enforcement_table_total", {"result": "uncacheable"})
            == 1
        )
        stats = engine.table_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["uncacheable"] == 1
        assert 0.0 <= stats["hit_rate"] <= 1.0
