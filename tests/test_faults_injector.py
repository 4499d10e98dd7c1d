"""Unit tests for FaultInjector: one plane per site, shared step counter."""

import pytest

from repro.errors import NetworkError, StorageError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec, single_spec_plan
from repro.net.bus import MessageBus
from repro.obs.metrics import MetricsRegistry
from repro.sensors.base import Observation
from repro.tippers.datastore import Datastore


def make_bus():
    bus = MessageBus(metrics=MetricsRegistry())
    bus.register_handler("echo", lambda method, payload: {"ok": True})
    return bus


def make_observation(sensor_type="temperature", subject_id=None):
    return Observation.create(
        sensor_id="t-1",
        sensor_type=sensor_type,
        timestamp=100.0,
        space_id="room-1",
        payload={"value": 21.5},
        subject_id=subject_id,
    )


class TestBusPlane:
    def test_injected_drop_counts_as_faulted(self):
        bus = make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP, at_steps=(0,)))
        )
        injector.install_bus(bus)
        with pytest.raises(NetworkError):
            bus.call("echo", "ping")
        assert bus.stats.dropped == 1
        # Step 1 has no scheduled fault: the retry-free call succeeds.
        assert bus.call("echo", "ping") == {"ok": True}
        assert injector.trace.lines() == [
            "step=000000 site=bus kind=drop target=echo method=ping"
        ]

    def test_crash_window_models_offline_then_restart(self):
        bus = make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.CRASH, target="echo", stop=2))
        )
        injector.install_bus(bus)
        for _ in range(2):
            with pytest.raises(NetworkError):
                bus.call("echo", "ping")
        # Step 2 is past the window: the endpoint has restarted.
        assert bus.call("echo", "ping") == {"ok": True}
        assert injector.trace.counts() == {"crash": 2}

    def test_crash_targets_only_named_endpoint(self):
        bus = make_bus()
        bus.register_handler("other", lambda method, payload: {"ok": "other"})
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.CRASH, target="other"))
        )
        injector.install_bus(bus)
        assert bus.call("echo", "ping") == {"ok": True}
        with pytest.raises(NetworkError):
            bus.call("other", "ping")

    def test_corruption_is_counted_and_dropped(self):
        bus = make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.CORRUPT, at_steps=(0,)))
        )
        injector.install_bus(bus)
        with pytest.raises(NetworkError):
            bus.call("echo", "ping")
        assert bus.stats.corrupted == 1
        assert bus.stats.dropped == 1

    def test_latency_spike_is_charged_not_slept(self):
        bus = make_bus()
        injector = FaultInjector(
            single_spec_plan(
                FaultSpec(kind=FaultKind.LATENCY, at_steps=(0,), latency_s=0.25)
            )
        )
        injector.install_bus(bus)
        assert bus.call("echo", "ping") == {"ok": True}
        assert bus.stats.simulated_latency_s == pytest.approx(0.25)
        assert "latency_s=0.250" in injector.trace.lines()[0]

    def test_composed_faults_merge(self):
        bus = make_bus()
        plan = FaultPlan(
            [
                FaultSpec(kind=FaultKind.LATENCY, at_steps=(0,), latency_s=0.1),
                FaultSpec(kind=FaultKind.DROP, at_steps=(0,)),
            ],
            name="combo",
        )
        injector = FaultInjector(plan)
        injector.install_bus(bus)
        with pytest.raises(NetworkError):
            bus.call("echo", "ping")
        assert bus.stats.simulated_latency_s == pytest.approx(0.1)
        assert bus.stats.dropped == 1
        assert injector.trace.counts() == {"latency": 1, "drop": 1}


class TestDatastorePlane:
    def test_failed_insert_leaves_store_untouched(self):
        store = Datastore()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.STORE_WRITE_FAIL, target="insert"))
        )
        injector.install_datastore(store)
        with pytest.raises(StorageError):
            store.insert(make_observation())
        assert store.count() == 0
        assert store.total_inserted == 0
        assert store.total_write_failures == 1
        assert injector.trace.lines() == [
            "step=000000 site=datastore kind=store_write_fail target=insert "
            "detail=temperature"
        ]

    def test_forget_target_spares_inserts(self):
        store = Datastore()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.STORE_WRITE_FAIL, target="forget"))
        )
        injector.install_datastore(store)
        store.insert(make_observation(subject_id="mary"))
        with pytest.raises(StorageError):
            store.forget_subject("mary")
        # The guard fires before any mutation: the data survives.
        assert store.count() == 1
        assert store.query(subject_id="mary")


class TestSensorPlane:
    class FakeSensor:
        def __init__(self, sensor_id, sensor_type):
            self.sensor_id = sensor_id
            self.sensor_type = sensor_type

    class FakeSubsystem:
        def __init__(self):
            self.planes = []

        def install_fault_plane(self, plane):
            self.planes.append(plane)

        def remove_fault_plane(self, plane):
            self.planes.remove(plane)

    def test_stall_matches_by_id_or_type(self):
        subsystem = self.FakeSubsystem()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.SENSOR_STALL, target="motion-1"))
        )
        injector.install_subsystem(subsystem)
        (plane,) = subsystem.planes
        assert plane(self.FakeSensor("motion-1", "motion_sensor"))
        assert not plane(self.FakeSensor("motion-2", "motion_sensor"))

        by_type = FaultInjector(
            single_spec_plan(
                FaultSpec(kind=FaultKind.SENSOR_STALL, target="motion_sensor")
            )
        )
        by_type.install_subsystem(subsystem)
        assert subsystem.planes[-1](self.FakeSensor("motion-9", "motion_sensor"))

    def test_uninstall_removes_plane(self):
        subsystem = self.FakeSubsystem()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.SENSOR_STALL))
        )
        injector.install_subsystem(subsystem)
        injector.uninstall()
        assert subsystem.planes == []


class TestPolicyStorePlane:
    class FakeStore:
        def __init__(self):
            self.fetches = 0

        def candidate_policies(self, request):
            self.fetches += 1
            return ["policy-a"]

    def test_fetch_faults_then_uninstall_restores(self):
        store = self.FakeStore()
        injector = FaultInjector(
            single_spec_plan(
                FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, at_steps=(0,))
            )
        )
        injector.install_policy_store(store)
        with pytest.raises(StorageError):
            store.candidate_policies(object())
        assert store.fetches == 0
        # Step 1 is clean: the wrapped fetch falls through.
        assert store.candidate_policies(object()) == ["policy-a"]
        assert store.fetches == 1
        injector.uninstall()
        assert store.candidate_policies.__self__ is store
        assert injector.trace.counts() == {"policy_fetch_fail": 1}


class TestGlobalStepCounter:
    def test_steps_are_shared_across_sites(self):
        bus = make_bus()
        store = Datastore()
        injector = FaultInjector(
            FaultPlan(
                [
                    FaultSpec(kind=FaultKind.DROP, at_steps=(0,)),
                    FaultSpec(kind=FaultKind.STORE_WRITE_FAIL, at_steps=(1,)),
                ],
                name="interleave",
            )
        )
        injector.install_bus(bus)
        injector.install_datastore(store)
        with pytest.raises(NetworkError):
            bus.call("echo", "ping")          # step 0: bus
        with pytest.raises(StorageError):
            store.insert(make_observation())  # step 1: datastore
        assert bus.call("echo", "ping") == {"ok": True}  # step 2: clean
        assert injector.step == 3
        assert [event.step for event in injector.trace.events] == [0, 1]

    def test_uninstall_silences_everything(self):
        bus = make_bus()
        store = Datastore()
        injector = FaultInjector(
            FaultPlan(
                [
                    FaultSpec(kind=FaultKind.DROP),
                    FaultSpec(kind=FaultKind.STORE_WRITE_FAIL),
                ],
                name="always-on",
            )
        )
        injector.install_bus(bus)
        injector.install_datastore(store)
        with pytest.raises(NetworkError):
            bus.call("echo", "ping")
        injector.uninstall()
        assert bus.call("echo", "ping") == {"ok": True}
        store.insert(make_observation())
        assert store.count() == 1
