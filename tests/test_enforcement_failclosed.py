"""Fail-closed enforcement: a policy-fetch outage must never widen access."""

import pytest

from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import EvaluationContext
from repro.errors import StorageError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.obs.metrics import MetricsRegistry
from repro.spatial.model import build_simple_building


def sharing_request(timestamp=100.0, **overrides):
    defaults = dict(
        requester_id="concierge",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="b-1001",
        timestamp=timestamp,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


def make_engine(cls=EnforcementEngine):
    spatial = build_simple_building("b", 2, 4)
    engine = cls(
        context=EvaluationContext(spatial=spatial),
        metrics=MetricsRegistry(),
    )
    engine.store.add_policy(catalog.policy_service_sharing("b"))
    return engine


def outage_injector(store, spec=None):
    injector = FaultInjector(
        single_spec_plan(spec or FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL))
    )
    injector.install_policy_store(store)
    return injector


class TestEngineFailClosed:
    def test_fetch_fault_denies_and_audits(self):
        engine = make_engine()
        assert engine.decide(sharing_request()).allowed  # healthy baseline
        injector = outage_injector(engine.store)
        decision = engine.decide(sharing_request())
        assert not decision.allowed
        assert decision.resolution.effect is Effect.DENY
        assert decision.granularity is GranularityLevel.NONE
        assert "fail-closed deny" in decision.resolution.reasons
        assert any(
            reason.startswith("policy fetch failed:")
            for reason in decision.resolution.reasons
        )
        record = engine.audit.records()[-1]
        assert record.effect is Effect.DENY
        assert "fail-closed deny" in record.reasons
        assert engine.metrics.total("enforcement_failclosed_total") == 1
        assert injector.trace.counts() == {"policy_fetch_fail": 1}

    def test_recovery_after_outage(self):
        engine = make_engine()
        injector = outage_injector(engine.store)
        assert not engine.decide(sharing_request()).allowed
        injector.uninstall()
        assert engine.decide(sharing_request()).allowed

    def test_intermittent_outage_never_allows_a_faulted_fetch(self):
        engine = make_engine()
        injector = outage_injector(
            engine.store, FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, every=3)
        )
        outcomes = [engine.decide(sharing_request()).allowed for _ in range(12)]
        failclosed = int(engine.metrics.total("enforcement_failclosed_total"))
        # Each decide performs exactly one fetch: every faulted fetch is
        # a fail-closed deny, every clean one the baseline allow.
        assert failclosed == injector.trace.counts()["policy_fetch_fail"] == 4
        assert outcomes.count(False) == failclosed
        assert outcomes.count(True) == 12 - failclosed

    def test_capture_path_fails_closed_too(self):
        from repro.sensors.base import Observation

        engine = make_engine()
        engine.store.add_policy(catalog.policy_2_emergency_location("b"))
        observation = Observation.create(
            sensor_id="ap-1",
            sensor_type="wifi_access_point",
            timestamp=50.0,
            space_id="b-1001",
            payload={"device_mac": "aa:bb", "ap_mac": "x", "rssi": -40.0},
            subject_id="mary",
        )
        assert engine.enforce_observation(observation) is not None
        outage_injector(engine.store)
        # The faulted store must drop the observation, not store it.
        assert engine.enforce_observation(observation) is None


class TestCachingEngineFailClosed:
    """The memoizing engine TIPPERS runs: compiled decision tables."""

    def test_fail_closed_is_never_cached(self):
        engine = make_engine(CompiledEnforcementEngine)
        injector = outage_injector(engine.store)
        for _ in range(3):
            assert not engine.decide(sharing_request()).allowed
        assert engine.stats.hits == 0
        assert engine.stats.misses == 0
        assert engine.table_rows == 0
        injector.uninstall()
        # The outage left no poisoned rows behind.
        assert engine.decide(sharing_request()).allowed
        assert engine.stats.misses == 1

    def test_faulted_cacheability_probe_means_uncacheable(self):
        engine = make_engine(CompiledEnforcementEngine)
        injector = outage_injector(
            engine.store, FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, every=2)
        )
        # Step 0 faults: fail-closed, nothing compiled.
        assert not engine.decide(sharing_request()).allowed
        assert engine.table_rows == 0
        # Step 1 is clean, and the miss's one fetch also proves the row
        # time-stable: there is no second probe to fault.
        assert engine.decide(sharing_request()).allowed
        assert engine.stats.misses == 1 and engine.stats.uncacheable == 0
        assert engine.table_rows == 1
        assert injector.trace.counts()["policy_fetch_fail"] == 1

    @pytest.mark.parametrize("every", [2, 3, 5])
    def test_every_faulted_fetch_fails_closed(self, every):
        engine = make_engine(CompiledEnforcementEngine)
        injector = outage_injector(
            engine.store, FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, every=every)
        )
        for index in range(24):
            # Repeats (hits fetch nothing) mixed with fresh keys (misses).
            engine.decide(sharing_request(requester_id="svc-%d" % (index % 9)))
        faults = injector.trace.counts()["policy_fetch_fail"]
        assert faults > 0 and engine.stats.hits > 0
        assert engine.metrics.total("enforcement_failclosed_total") == faults

    def test_prior_cache_entries_survive_an_outage(self):
        engine = make_engine(CompiledEnforcementEngine)
        assert engine.decide(sharing_request()).allowed  # compiles the row
        assert engine.table_rows == 1
        outage_injector(engine.store)
        # An exact repeat is served from the table without fetching, so
        # the outage does not regress already-proven decisions...
        assert engine.decide(sharing_request(timestamp=200.0)).allowed
        assert engine.stats.hits == 1
        # ...but an uncompiled request still fails closed.
        assert not engine.decide(sharing_request(subject_id="bob")).allowed


class TestRequestManagerDegradation:
    def test_locate_user_degrades_on_storage_fault(self, tippers, monkeypatch):
        def broken_locate(subject_id, now):
            raise StorageError("index shard offline")

        monkeypatch.setattr(
            tippers.request_manager._inference, "locate", broken_locate
        )
        before = tippers.request_manager.metrics.total(
            "tippers_degraded_total", {"method": "locate_user"}
        )
        response = tippers.locate_user(
            "concierge", RequesterKind.BUILDING_SERVICE, "mary", 100.0
        )
        assert not response.allowed
        assert "fail-closed deny" in response.reasons
        assert any("degraded:" in reason for reason in response.reasons)
        after = tippers.request_manager.metrics.total(
            "tippers_degraded_total", {"method": "locate_user"}
        )
        assert after == before + 1

    def test_fetch_fault_propagates_to_service_queries(self, tippers):
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL))
        )
        injector.install_policy_store(tippers.store)
        response = tippers.locate_user(
            "concierge", RequesterKind.BUILDING_SERVICE, "mary", 100.0
        )
        injector.uninstall()
        assert not response.allowed
        assert "fail-closed deny" in response.reasons
