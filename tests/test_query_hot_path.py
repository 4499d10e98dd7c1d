"""The warm query round trip resolves no metric handle and opens no span.

Paper steps 9-10 over the bus: once every handle a call touches has
been bound, a warm ``locate_user``/``room_occupancy`` call must not
ask the registry for a counter, gauge or histogram, and the
``NullTracer`` must hand out one shared context manager.  Binding
handles up front must not create a series either, so the registry ends
with exactly the series the round trip created before handles were
bound (:data:`SERIES`).  Serving calls must not grow the audit
records held in memory either: the WAL is the only copy of the trail.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.enforcement.audit import AuditRecord
from repro.core.policy import catalog
from repro.net.admission import AdmissionController
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NullTracer
from repro.storage.durable import StorageEngine
from repro.tippers.bms import TIPPERS

#: Every series the round trip below leaves in the registry, as
#: ``(kind, name, labels)``; generated from the code that still looked
#: each handle up per call.
SERIES = [
    ("counter", "admission_admitted_total", {"class": "normal", "target": "tippers"}),
    ("counter", "admission_checked_total", {}),
    ("counter", "admission_injected_arrivals_total", {}),
    ("counter", "audit_appends_total", {}),
    ("counter", "brownout_responses_total", {}),
    ("counter", "bus_attempts_total", {}),
    ("counter", "bus_bytes_received_total", {}),
    ("counter", "bus_bytes_sent_total", {}),
    ("counter", "bus_calls_total", {"method": "locate_user", "target": "tippers"}),
    ("counter", "bus_calls_total", {"method": "room_occupancy", "target": "tippers"}),
    ("counter", "bus_dropped_total", {}),
    ("counter", "bus_errors_total", {}),
    ("counter", "bus_simulated_latency_seconds_total", {}),
    ("counter", "capture_degraded_total", {}),
    ("counter", "capture_dropped_total", {"phase": "capture"}),
    ("counter", "capture_dropped_total", {"phase": "storage"}),
    ("counter", "capture_observations_total", {"stage": "sampled"}),
    ("counter", "capture_observations_total", {"stage": "stored"}),
    ("counter", "capture_ticks_total", {}),
    ("counter", "capture_write_failures_total", {}),
    ("counter", "enforcement_decisions_total", {"effect": "allow"}),
    ("counter", "enforcement_decisions_total", {"effect": "deny"}),
    ("counter", "enforcement_failclosed_total", {}),
    ("counter", "enforcement_table_invalidations_total", {}),
    ("counter", "enforcement_table_total", {"result": "hit"}),
    ("counter", "enforcement_table_total", {"result": "miss"}),
    ("counter", "enforcement_table_total", {"result": "uncacheable"}),
    ("counter", "storage_wal_appends_total", {"type": "audit"}),
    ("counter", "storage_wal_appends_total", {"type": "erase"}),
    ("counter", "storage_wal_appends_total", {"type": "migration"}),
    ("counter", "storage_wal_appends_total", {"type": "obs"}),
    ("counter", "storage_wal_appends_total", {"type": "pref"}),
    ("counter", "storage_wal_appends_total", {"type": "pref_withdraw_all"}),
    ("counter", "storage_wal_bytes_total", {}),
    ("counter", "storage_wal_segments_sealed_total", {}),
    ("counter", "tippers_queries_total", {"method": "locate_user", "outcome": "allowed"}),
    ("counter", "tippers_queries_total", {"method": "room_occupancy", "outcome": "allowed"}),
    ("gauge", "admission_queue_load", {"target": "tippers"}),
    ("gauge", "audit_records", {}),
    ("gauge", "enforcement_table_rows", {}),
    ("gauge", "enforcement_table_shards", {}),
    ("histogram", "bus_call_seconds", {"method": "locate_user", "target": "tippers"}),
    ("histogram", "bus_call_seconds", {"method": "room_occupancy", "target": "tippers"}),
    ("histogram", "capture_tick_seconds", {}),
    ("histogram", "enforcement_decide_seconds", {}),
    ("histogram", "enforcement_rules_evaluated", {}),
    ("histogram", "tippers_query_seconds", {"method": "locate_user"}),
    ("histogram", "tippers_query_seconds", {"method": "room_occupancy"}),
]

WARM_CALLS = 200
MEMORY_CALLS = 5_000


def _series(registry: MetricsRegistry):
    snapshot = registry.snapshot()
    return [
        (kind[:-1], entry["name"], entry["labels"])
        for kind in ("counters", "gauges", "histograms")
        for entry in snapshot[kind]
    ]


def _ops():
    def ask(method, key, value):
        return method, {
            "requester_id": "svc",
            "requester_kind": "building_service",
            key: value,
            "now": 200.0,
        }

    return [ask("locate_user", "subject_id", user) for user in ("mary", "bob")] + [
        ask("room_occupancy", "space_id", room)
        for room in ("b-1001", "b-1002", "b-1003", "b-2001")
    ]


@pytest.fixture
def warm_bus(small_building, mary, bob, world, tmp_path):
    """A storage-backed building whose every query op has run once."""
    registry = MetricsRegistry()
    storage = StorageEngine(str(tmp_path), metrics=registry)
    tippers = TIPPERS(
        small_building, "b", owner_name="UCI", storage=storage, metrics=registry
    )
    tippers.define_policy(catalog.policy_2_emergency_location("b"))
    tippers.define_policy(catalog.policy_service_sharing("b"))
    tippers.define_policy(catalog.policy_1_comfort(["b-1001", "b-1002"]))
    tippers.add_user(mary)
    tippers.add_user(bob)
    tippers.deploy_sensor("wifi_access_point", "ap-1", "b-1001")
    tippers.deploy_sensor("wifi_access_point", "ap-2", "b-1002")
    tippers.deploy_sensor("motion_sensor", "motion-1", "b-1001")
    world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
    world.put("bob", "aa:bb:cc:00:00:02", "b-1002")
    for now in (100.0, 160.0):
        tippers.tick(now, world)
    bus = MessageBus(
        metrics=registry,
        tracer=NullTracer(),
        breakers=BreakerBoard(),
        admission=AdmissionController(
            seed=1,
            principal_capacity=64.0,
            principal_refill_per_step=8.0,
            metrics=registry,
        ),
    )
    bus.register("tippers", tippers)
    for method, payload in _ops():
        bus.call("tippers", method, payload)
    yield bus, tippers, registry
    storage.close()


def test_warm_calls_resolve_no_handle(warm_bus, monkeypatch):
    bus, tippers, registry = warm_bus
    lookups = []
    for kind in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, kind)

        def spy(self, *args, _original=original, _kind=kind, **kwargs):
            lookups.append((_kind, args[0]))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, kind, spy)
    ops = _ops()
    hits = tippers.engine.stats.hits
    for index in range(WARM_CALLS):
        method, payload = ops[index % len(ops)]
        answer = bus.call("tippers", method, payload)
        assert answer["allowed"], (method, payload, answer)
    assert lookups == []
    assert tippers.engine.stats.hits == hits + WARM_CALLS


def test_null_tracer_shares_one_span():
    assert NullTracer().span("a") is NullTracer().span("b")
    with NullTracer().span("a") as span:
        assert span is NullTracer().span("b").__enter__()


def test_round_trip_creates_the_same_series(warm_bus):
    bus, _, registry = warm_bus
    for method, payload in _ops() * 3:
        bus.call("tippers", method, payload)
    assert _series(registry) == SERIES


def _live_audit_records() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is AuditRecord)


def test_served_queries_keep_no_audit_record(warm_bus):
    """The WAL is a storage-backed building's only audit trail: serving
    queries grows the log on disk, not the records held in memory."""
    bus, tippers, _ = warm_bus
    ops = _ops()
    appended = len(tippers.audit)
    before = _live_audit_records()
    for index in range(MEMORY_CALLS):
        method, payload = ops[index % len(ops)]
        bus.call("tippers", method, payload)
    assert len(tippers.audit) == appended + MEMORY_CALLS
    assert _live_audit_records() <= before
