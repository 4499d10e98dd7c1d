"""Integration tests: the framework under injected failures.

Failures are driven through the deterministic fault-injection harness
(:mod:`repro.faults`) rather than ad-hoc drop rates: a seeded
:class:`FaultPlan` decides which bus attempts drop, when the registry
endpoint crashes, and which datastore writes fail.  The IoTA and
TIPPERS must degrade gracefully -- the paper's interaction loop is
built from independent request/response exchanges, so each should
either complete via retries or fail without corrupting state.
"""

import pytest

from repro.core.policy import catalog
from repro.errors import NetworkError, StorageError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec, single_spec_plan
from repro.iota.assistant import IoTAssistant
from repro.iota.personas import PERSONAS, generate_decisions
from repro.iota.preference_model import PreferenceModel
from repro.irr.registry import IoTResourceRegistry
from repro.net.bus import MessageBus
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sensors.base import Observation
from repro.tippers.bms import TIPPERS
from repro.tippers.dsar import erase_subject


def lossy_plan(seed=42, rate=0.3):
    """A plan dropping ``rate`` of bus attempts, deterministically."""
    return FaultPlan(
        [FaultSpec(kind=FaultKind.DROP, rate=rate)], seed=seed, name="lossy-it"
    )


@pytest.fixture
def lossy_setup(tippers):
    """TIPPERS + IRR behind a bus dropping 30% of attempts (injected)."""
    bus = MessageBus()
    bus.register("tippers", tippers)
    registry = IoTResourceRegistry("irr-1", tippers.spatial)
    bus.register("irr-1", registry)
    document = tippers.policy_manager.compile_policy_document()
    settings = tippers.policy_manager.settings_space.to_document()
    registry.publish_resource("ads", "b", document, settings=settings)
    injector = FaultInjector(lossy_plan())
    injector.install_bus(bus)
    model = PreferenceModel().fit(
        generate_decisions(PERSONAS["fundamentalist"], 150, seed=1, noise=0.0)
    )
    assistant = IoTAssistant(
        "mary", bus, model=model, registry_endpoints=["irr-1"]
    )
    return bus, assistant, tippers


class TestLossyNetwork:
    def test_discovery_succeeds_with_retries(self, lossy_setup):
        bus, assistant, _ = lossy_setup
        # discover() retries each registry call twice; at 30% loss a
        # seeded run completes.  If every retry is eaten, the result is
        # simply empty -- never an exception.
        result = assistant.discover("b-1001", now=100.0)
        assert result.registry_ids in ([], ["irr-1"])
        assert bus.stats.dropped >= 0

    def test_repeated_discovery_eventually_succeeds(self, lossy_setup):
        bus, assistant, _ = lossy_setup
        results = [assistant.discover("b-1001", now=float(i)) for i in range(10)]
        assert any(r.resources for r in results), "some sweep must get through"

    def test_settings_configuration_state_consistent(self, lossy_setup):
        bus, assistant, tippers = lossy_setup
        submitted = None
        for attempt in range(10):
            try:
                submitted = assistant.configure_building_settings(now=100.0 + attempt)
                break
            except NetworkError:
                continue
        assert submitted is not None, "retries must eventually land"
        # Building state reflects exactly the submitted selection.
        assert tippers.preference_manager.selection_of("mary") == submitted

    def test_injected_loss_is_reproducible(self, tippers):
        def run():
            bus = MessageBus()
            bus.register("tippers", tippers)
            registry = IoTResourceRegistry("irr-run", tippers.spatial)
            bus.register("irr-run", registry)
            registry.publish_resource(
                "ads", "b", tippers.policy_manager.compile_policy_document()
            )
            injector = FaultInjector(lossy_plan())
            injector.install_bus(bus)
            assistant = IoTAssistant("mary", bus, registry_endpoints=["irr-run"])
            outcomes = [
                bool(assistant.discover("b-1001", now=float(i)).registry_ids)
                for i in range(10)
            ]
            return outcomes, injector.trace.to_text(), bus.stats.dropped

        first, second = run(), run()
        assert first == second

    def test_zero_loss_control(self, tippers):
        bus = MessageBus(drop_rate=0.0)
        bus.register("tippers", tippers)
        registry = IoTResourceRegistry("irr-1", tippers.spatial)
        bus.register("irr-1", registry)
        registry.publish_resource(
            "ads", "b", tippers.policy_manager.compile_policy_document()
        )
        assistant = IoTAssistant("mary", bus, registry_endpoints=["irr-1"])
        assert assistant.discover("b-1001", now=0.0).resources


class TestPartialDeployments:
    def test_missing_registry_is_not_fatal(self, tippers):
        bus = MessageBus()
        bus.register("tippers", tippers)
        assistant = IoTAssistant(
            "mary", bus, registry_endpoints=["irr-ghost-1", "irr-ghost-2"]
        )
        result = assistant.discover("b-1001", now=0.0)
        assert result.registry_ids == []
        assert result.resources == []

    def test_tippers_without_settings_space_still_answers_queries(self, small_building, mary):
        bms = TIPPERS(small_building, "b")
        bms.add_user(mary)
        bms.define_policy(catalog.policy_service_sharing("b"))
        from repro.core.policy.base import RequesterKind

        response = bms.locate_user(
            "svc", RequesterKind.BUILDING_SERVICE, "mary", 100.0
        )
        assert response.allowed  # no data yet, but the path works
        assert response.value is None


class TestEndpointCrashMidDiscovery:
    """The registry endpoint crashes mid-sequence, then restarts.

    Each discovery sweep issues one logical call with two retries (three
    transport attempts); the crash window is sized in those attempts.
    """

    def test_discovery_rides_out_a_registry_crash(self, tippers):
        bus = MessageBus()
        bus.register("tippers", tippers)
        registry = IoTResourceRegistry("irr-1", tippers.spatial)
        bus.register("irr-1", registry)
        registry.publish_resource(
            "ads", "b", tippers.policy_manager.compile_policy_document()
        )
        # Steps 1..6 cover sweeps 2 and 3 (3 attempts each); the window
        # closing at step 7 is the restart.
        injector = FaultInjector(
            single_spec_plan(
                FaultSpec(kind=FaultKind.CRASH, target="irr-1", start=1, stop=7)
            )
        )
        injector.install_bus(bus)
        assistant = IoTAssistant("mary", bus, registry_endpoints=["irr-1"])

        before = assistant.discover("b-1001", now=0.0)
        assert before.registry_ids == ["irr-1"]

        during = [assistant.discover("b-1001", now=float(i)) for i in (1, 2)]
        assert all(r.registry_ids == [] for r in during)
        assert all(r.resources == [] for r in during)

        after = assistant.discover("b-1001", now=3.0)
        assert after.registry_ids == ["irr-1"]
        assert after.resources

        # All six crashed attempts are visible in the books and trace.
        assert bus.stats.faulted == 6
        assert bus.stats.dropped == 6
        assert injector.trace.counts() == {"crash": 6}
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries


class TestDatastoreFailureMidDSAR:
    """A write failure mid-erasure must not corrupt state.

    The store's write guard fires before any mutation, so a faulted
    erasure leaves both the data and the audit log exactly as they
    were; the retry after recovery completes the request.
    """

    def observations_for(self, subject, count=3):
        return [
            Observation.create(
                sensor_id="ap-1",
                sensor_type="wifi_access_point",
                timestamp=100.0 + i,
                space_id="b-1001",
                payload={"device_mac": "aa:bb", "ap_mac": "x", "rssi": -40.0},
                subject_id=subject,
            )
            for i in range(count)
        ]

    def test_erasure_fails_atomically_then_succeeds_on_retry(self, tippers):
        for observation in self.observations_for("mary"):
            tippers.datastore.insert(observation)
        assert tippers.datastore.count() == 3
        audit_before = len(tippers.audit)

        injector = FaultInjector(
            single_spec_plan(
                FaultSpec(kind=FaultKind.STORE_WRITE_FAIL, target="forget")
            )
        )
        injector.install_datastore(tippers.datastore)
        with pytest.raises(StorageError):
            erase_subject(tippers, "mary", now=500.0)

        # Nothing moved: data intact, no erasure record, failure counted.
        assert tippers.datastore.count() == 3
        assert len(tippers.datastore.query(subject_id="mary")) == 3
        assert len(tippers.audit) == audit_before
        assert tippers.datastore.total_write_failures == 1

        injector.uninstall()
        receipt = erase_subject(tippers, "mary", now=501.0)
        assert receipt.erased_observations == 3
        assert tippers.datastore.query(subject_id="mary") == []
        erasure = tippers.audit.records()[-1]
        assert erasure.category == "erasure"
        assert "3 observations deleted" in erasure.reasons[0]


class TestInjectedRetryAccounting:
    """Satellite check: retries caused by *injected* faults stay inside
    the ``calls == logical_calls + retries`` identity and reconcile
    with the metrics registry."""

    def test_identity_and_metrics_reconcile(self, tippers):
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics, tracer=Tracer())
        bus.register("tippers", tippers)
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP, at_steps=(0, 1, 3)))
        )
        injector.install_bus(bus)
        policy = RetryPolicy(max_retries=3, jitter=0.0, seed=7)

        from repro.core.policy.base import RequesterKind

        payload = {
            "requester_id": "svc",
            "requester_kind": RequesterKind.BUILDING_SERVICE.value,
            "subject_id": "mary",
            "now": 100.0,
        }
        # Call 1: attempts at steps 0, 1 drop; step 2 succeeds.
        bus.call("tippers", "locate_user", payload, retry_policy=policy)
        # Call 2: attempt at step 3 drops; step 4 succeeds.
        bus.call("tippers", "locate_user", payload, retry_policy=policy)

        assert bus.stats.logical_calls == 2
        assert bus.stats.retries == 3
        assert bus.stats.faulted == 3
        assert bus.stats.calls == 5
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
        # The registry mirrors the books exactly.
        assert metrics.total("bus_attempts_total") == bus.stats.calls
        assert metrics.total("bus_retries_total") == bus.stats.retries
        assert metrics.total("bus_dropped_total") == bus.stats.dropped
        assert metrics.total(
            "bus_fault_dropped_total", {"target": "tippers"}
        ) == bus.stats.faulted
        # The charged backoff equals the policy's first delays, exactly.
        expected = sum(policy.schedule()[:2]) + policy.schedule()[0]
        assert bus.stats.simulated_latency_s == pytest.approx(expected)


class TestFailureVisibility:
    """Injected failures must be *visible* in metrics.

    After a lossy Figure-1 exchange, the drop, error, and retry counters
    on the registry must reconcile exactly with the outcomes the caller
    observed -- otherwise the observability layer under-reports exactly
    the incidents it exists to explain.
    """

    @pytest.fixture
    def observed_lossy_setup(self, tippers):
        registry = MetricsRegistry()
        tracer = Tracer()
        bus = MessageBus(metrics=registry, tracer=tracer)
        bus.register("tippers", tippers)
        irr = IoTResourceRegistry("irr-1", tippers.spatial)
        bus.register("irr-1", irr)
        document = tippers.policy_manager.compile_policy_document()
        irr.publish_resource("ads", "b", document)
        injector = FaultInjector(lossy_plan())
        injector.install_bus(bus)
        assistant = IoTAssistant(
            "mary", bus, registry_endpoints=["irr-1"], metrics=registry
        )
        return registry, tracer, bus, assistant

    def test_drops_and_retries_reconcile_with_outcomes(self, observed_lossy_setup):
        registry, _, bus, assistant = observed_lossy_setup
        results = [assistant.discover("b-1001", now=float(i)) for i in range(20)]
        reached = sum(1 for result in results if result.registry_ids)

        # Registry counters mirror the bus's own books exactly.
        assert registry.total("bus_attempts_total") == bus.stats.calls
        assert registry.total("bus_calls_total") == bus.stats.logical_calls
        assert registry.total("bus_retries_total") == bus.stats.retries
        assert registry.total("bus_dropped_total") == bus.stats.dropped
        # Every drop came from the fault plane, and is marked as such.
        assert registry.total("bus_fault_dropped_total") == bus.stats.faulted
        assert bus.stats.faulted == bus.stats.dropped

        # The accounting identity: every attempt is a first send or a retry.
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
        # One logical call per sweep (a single registry endpoint).
        assert bus.stats.logical_calls == 20
        # No endpoint failures in this setup: every attempt either
        # dropped or succeeded, and successes == sweeps that reached
        # the registry.
        assert bus.stats.errors == 0
        assert bus.stats.calls - bus.stats.dropped == reached
        # Failed sweeps are exactly the ones whose every attempt dropped.
        failed = 20 - reached
        assert bus.stats.dropped == bus.stats.retries + failed
        # A 30% loss rate over 20 sweeps must show up in the counters.
        assert bus.stats.dropped > 0

        # IoTA-level counters agree with the caller-visible outcome.
        assert registry.total("iota_discovery_rounds_total") == 20
        assert registry.total("iota_registries_reached_total") == reached
        assert registry.total("iota_registries_unreachable_total") == failed

    def test_spans_record_failed_sweeps_as_errors(self, observed_lossy_setup):
        registry, tracer, bus, assistant = observed_lossy_setup
        for index in range(20):
            assistant.discover("b-1001", now=float(index))
        discover_spans = tracer.find("iota.discover")
        assert len(discover_spans) == 20
        assert all(span.finished for span in discover_spans)
        call_spans = tracer.find("bus.call")
        assert len(call_spans) == bus.stats.logical_calls
        # A bus.call span errors exactly when its logical call failed,
        # which is exactly an unreachable-registry sweep.
        errored = sum(1 for span in call_spans if span.status == "error")
        assert errored == registry.total("iota_registries_unreachable_total")

    def test_rpc_errors_surface_in_error_counters(self, tippers):
        registry = MetricsRegistry()
        bus = MessageBus(metrics=registry, tracer=Tracer())
        bus.register("tippers", tippers)
        from repro.net.bus import RpcError

        with pytest.raises(RpcError):
            bus.call("tippers", "no_such_method", {})
        assert bus.stats.errors == 1
        assert registry.total("bus_errors_total") == 1
        assert registry.total(
            "bus_rpc_errors_total",
            {"target": "tippers", "method": "no_such_method"},
        ) == 1


class TestCachedTippersEquivalence:
    def test_cached_bms_matches_uncached(self, small_building, mary, bob):
        from repro.core.policy.base import RequesterKind

        def build(compiled):
            bms = TIPPERS(build_spatial(), "b", compile_decisions=compiled)
            bms.define_policy(catalog.policy_2_emergency_location("b"))
            bms.define_policy(catalog.policy_service_sharing("b"))
            bms.add_user(mary)
            bms.add_user(bob)
            return bms

        def build_spatial():
            from repro.spatial.model import build_simple_building

            return build_simple_building("b", 2, 4)

        cached, plain = build(True), build(False)
        cached.submit_preference(catalog.preference_2_no_location("mary"))
        plain.submit_preference(catalog.preference_2_no_location("mary"))
        for subject in ("mary", "bob"):
            for t in (100.0, 200.0, 300.0):
                a = cached.locate_user("svc", RequesterKind.BUILDING_SERVICE, subject, t)
                b = plain.locate_user("svc", RequesterKind.BUILDING_SERVICE, subject, t)
                assert a.allowed == b.allowed
