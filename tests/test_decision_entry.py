"""Every enforcement decision enters the engine through ``decide_key``.

Paper steps 2-3 and 9-10: a capture tick, the bus queries
``locate_user`` and ``room_occupancy``, a brownout-noted query and a
direct ``decide`` each reach
:meth:`CompiledEnforcementEngine.decide_key` exactly once per decision
(its calls equal the ``enforcement_decisions_total`` delta), and a warm
decision builds no :class:`DataRequest`.
"""

from __future__ import annotations

import pytest

from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, RequesterKind
from repro.net.bus import MessageBus
from repro.obs.metrics import MetricsRegistry
from repro.storage.durable import StorageEngine
from repro.tippers.bms import TIPPERS


def _query(method, key, value):
    return method, {
        "requester_id": "svc",
        "requester_kind": "building_service",
        key: value,
        "now": 200.0,
    }


QUERIES = [_query("locate_user", "subject_id", user) for user in ("mary", "bob")] + [
    _query("room_occupancy", "space_id", room) for room in ("b-1001", "b-1002")
]


class Entry:
    """A storage-backed building whose decisions are counted at entry."""

    def __init__(self, tippers, world, bus, registry, calls, built):
        self.tippers = tippers
        self.world = world
        self.bus = bus
        self.registry = registry
        self.calls = calls
        self.built = built

    def run(self, action):
        """What ``action()`` did: ``(decide_key calls, decisions, table
        hits, requests built)``."""

        def now():
            return (
                len(self.calls),
                self.registry.total("enforcement_decisions_total"),
                self.tippers.engine.stats.hits,
                len(self.built),
            )

        before = now()
        action()
        return tuple(after - start for after, start in zip(now(), before))

    def tick(self, now):
        return self.run(lambda: self.tippers.tick(now, self.world))

    def ask_all(self):
        def ask():
            for method, payload in QUERIES:
                assert self.bus.call("tippers", method, payload)["allowed"]

        return self.run(ask)


@pytest.fixture
def entry(small_building, mary, bob, world, tmp_path, monkeypatch):
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
    bus = MessageBus(metrics=registry)
    bus.register("tippers", tippers)

    calls = []
    decide_key = CompiledEnforcementEngine.decide_key

    def counting_decide_key(self, *args, **kwargs):
        calls.append(args[0])
        return decide_key(self, *args, **kwargs)

    built = []
    post_init = DataRequest.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CompiledEnforcementEngine, "decide_key", counting_decide_key)
    monkeypatch.setattr(DataRequest, "__post_init__", counting_post_init)
    yield Entry(tippers, world, bus, registry, calls, built)
    storage.close()


def test_cold_decisions_enter_once(entry):
    calls, decisions, hits, built = entry.tick(100.0)
    assert calls == decisions == built > 0
    assert hits == 0
    calls, decisions, hits, built = entry.ask_all()
    assert calls == decisions >= len(QUERIES)


def test_warm_decisions_build_no_request(entry):
    entry.tick(100.0)
    entry.ask_all()
    for outcome in (entry.tick(160.0), entry.ask_all()):
        calls, decisions, hits, built = outcome
        assert calls == decisions == hits > 0
        assert built == 0


def test_a_noted_query_enters_once(entry):
    entry.tick(100.0)
    entry.ask_all()
    method, payload = QUERIES[0]

    def noted():
        answer = entry.bus.call("tippers", method, dict(payload, brownout_level=1))
        assert any(reason.startswith("brownout") for reason in answer["reasons"])

    calls, decisions, hits, built = entry.run(noted)
    # A noted decision bypasses the table, so it builds its request.
    assert (calls, decisions, hits, built) == (1, 1, 0, 1)


def test_a_direct_decide_enters_once(entry):
    request = DataRequest(
        requester_id="svc",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="b-1001",
        timestamp=200.0,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    engine = entry.tippers.engine
    cold = entry.run(lambda: engine.decide(request))
    warm = entry.run(lambda: engine.decide(request))
    assert cold == (1, 1, 0, 0)
    assert warm == (1, 1, 1, 0)
