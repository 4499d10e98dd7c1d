"""Unit tests for the federation layer: ring, router, campus, DSAR.

The roaming edge cases at the bottom are the interesting half: a
handoff *during* a policy-fetch outage at the visited shard (the
enforcement path must fail closed while the control plane keeps
working), a re-entry that resumes a partially-completed preference
re-push without double-pushing, and a handoff into a building whose
access point is quarantined.
"""

import json

import pytest

from repro.core.policy import catalog
from repro.errors import FederationError, NetworkError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.federation import (
    Campus,
    FederationRouter,
    HashRing,
    REGISTRY_ENDPOINT_PREFIX,
    SHARD_ENDPOINT_PREFIX,
    campus_access_report,
    campus_erase_subject,
)
from repro.iota.assistant import IoTAssistant
from repro.net.admission import AdmissionController
from repro.obs.metrics import MetricsRegistry
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType
from repro.users.profile import profile_to_dict

BUILDINGS = ("bldg-a", "bldg-b")
NOON = 12 * 3600.0


def _campus(storage_root=None, **kwargs):
    kwargs.setdefault("floors", 1)
    kwargs.setdefault("rooms_per_floor", 2)
    return Campus(
        BUILDINGS,
        seed=11,
        metrics=MetricsRegistry(),
        storage_root=storage_root,
        **kwargs
    )


def _user_homed_at(campus, building_id, skip=0):
    """A deterministic user id whose ring home is ``building_id``."""
    found = 0
    for index in range(512):
        user_id = "fed-user-%03d" % index
        if campus.router.home_building(user_id) != building_id:
            continue
        if found == skip:
            return user_id
        found += 1
    raise AssertionError("no user hashes to %s" % building_id)


def _resident(campus, building_id, skip=0):
    """Generate one inhabitant and register them at their ring home."""
    user_id = _user_homed_at(campus, building_id, skip=skip)
    shard = campus.shard(building_id)
    inhabitant = generate_inhabitants(
        shard.spatial, 1, seed=5, building_id=building_id, user_ids=[user_id]
    )[0]
    campus.add_resident(building_id, inhabitant.profile)
    return inhabitant


def _rooms(shard):
    return sorted(
        s.space_id for s in shard.spatial.spaces_of_type(SpaceType.ROOM)
    )


def _observe(campus, shard, inhabitant, room, now, visitor=False):
    """Capture one observation of ``inhabitant`` inside ``shard``."""
    if visitor:
        world = BuildingWorld(shard.spatial, [], seed=3)
        world.add_visitor(inhabitant)
    else:
        world = BuildingWorld(shard.spatial, [inhabitant], seed=3)
    world.teleport(inhabitant.user_id, room)
    shard.tippers.tick(now, world)
    campus.record_presence(inhabitant.user_id, shard.building_id)


def _locate(campus, building_id, subject_id, now):
    return campus.router.call_building(
        building_id,
        "locate_user",
        {
            "requester_id": "svc-occupancy",
            "requester_kind": "building_service",
            "subject_id": subject_id,
            "now": now,
        },
        principal="svc-occupancy",
    )


def _assistant(campus, inhabitant):
    home = campus.home_of[inhabitant.user_id]
    shard = campus.shard(home)
    return IoTAssistant(
        inhabitant.user_id,
        campus.bus,
        tippers_endpoint=shard.endpoint,
        registry_endpoints=[shard.registry_endpoint],
        metrics=campus.metrics,
    )


def _roam(campus, assistant, inhabitant, building_id, now=NOON):
    shard = campus.shard(building_id)
    return assistant.roam_to(
        shard.endpoint,
        shard.registry_endpoint,
        profile_to_dict(inhabitant.profile),
        campus.home_of[inhabitant.user_id],
        _rooms(shard)[0],
        now,
    )


class TestHashRing:
    def test_placement_is_a_pure_function_of_nodes_and_vnodes(self):
        keys = ["user-%03d" % i for i in range(64)]
        a = HashRing(("b1", "b2", "b3"), vnodes=16)
        b = HashRing(("b3", "b1", "b2"), vnodes=16)  # order must not matter
        assert a.nodes() == b.nodes() == ("b1", "b2", "b3")
        assert a.assignments(keys) == b.assignments(keys)

    def test_every_node_owns_a_share_of_a_large_keyspace(self):
        ring = HashRing(("b1", "b2", "b3", "b4"))
        owners = {ring.node_for("user-%04d" % i) for i in range(400)}
        assert owners == {"b1", "b2", "b3", "b4"}

    def test_adding_a_node_only_moves_keys_onto_the_new_node(self):
        keys = ["user-%04d" % i for i in range(300)]
        before = HashRing(("b1", "b2", "b3")).assignments(keys)
        after = HashRing(("b1", "b2", "b3", "b4")).assignments(keys)
        moved = [key for key in keys if before[key] != after[key]]
        assert moved, "a new node should take over some keys"
        assert all(after[key] == "b4" for key in moved)

    def test_rejects_degenerate_configurations(self):
        with pytest.raises(FederationError):
            HashRing(())
        with pytest.raises(FederationError):
            HashRing(("b1", "b1"))
        with pytest.raises(FederationError):
            HashRing(("b1",), vnodes=0)


class TestFederationRouter:
    def test_endpoints_follow_the_naming_contract(self):
        campus = _campus()
        assert campus.router.shard_endpoint("bldg-a") == (
            SHARD_ENDPOINT_PREFIX + "bldg-a"
        )
        assert campus.router.registry_endpoint("bldg-b") == (
            REGISTRY_ENDPOINT_PREFIX + "bldg-b"
        )
        with pytest.raises(FederationError):
            campus.router.shard_endpoint("bldg-z")
        with pytest.raises(FederationError):
            campus.router.registry_endpoint("bldg-z")

    def test_home_building_is_the_ring_choice(self):
        campus = _campus()
        for index in range(32):
            user_id = "user-%02d" % index
            assert campus.router.home_building(user_id) == (
                campus.router.ring.node_for(user_id)
            )

    def test_call_building_reaches_the_named_shard(self):
        campus = _campus()
        for building_id in BUILDINGS:
            document = campus.router.call_building(
                building_id, "get_policy_document", {}
            )
            text = json.dumps(document, sort_keys=True)
            assert building_id.upper() in text
            other = [b for b in BUILDINGS if b != building_id][0]
            assert other.upper() not in text

    def test_call_home_routes_by_principal(self):
        campus = _campus()
        user_id = _user_homed_at(campus, "bldg-b")
        document = campus.router.call_home(user_id, "get_policy_document", {})
        assert "BLDG-B" in json.dumps(document, sort_keys=True)

    def test_rejects_an_empty_federation(self):
        campus = _campus()
        with pytest.raises(FederationError):
            FederationRouter(campus.bus, ())


class TestCampus:
    def test_rejects_duplicate_building_ids(self):
        with pytest.raises(FederationError):
            Campus(("bldg-a", "bldg-a"), metrics=MetricsRegistry())

    def test_residents_must_live_at_their_ring_home(self):
        campus = _campus()
        inhabitant = _resident(campus, "bldg-a")
        assert campus.home_of[inhabitant.user_id] == "bldg-a"
        assert campus.profile_of(inhabitant.user_id) is inhabitant.profile
        assert inhabitant.profile in campus.shard("bldg-a").residents

        stray_id = _user_homed_at(campus, "bldg-b")
        shard_b = campus.shard("bldg-b")
        stray = generate_inhabitants(
            shard_b.spatial, 1, seed=7, building_id="bldg-b",
            user_ids=[stray_id],
        )[0]
        with pytest.raises(FederationError):
            campus.add_resident("bldg-a", stray.profile)

    def test_unknown_lookups_raise(self):
        campus = _campus()
        with pytest.raises(FederationError):
            campus.shard("bldg-z")
        with pytest.raises(FederationError):
            campus.profile_of("nobody")
        with pytest.raises(FederationError):
            campus.record_presence("anyone", "bldg-z")

    def test_presence_ledger_is_sorted_and_deduplicated(self):
        campus = _campus()
        campus.record_presence("u1", "bldg-b")
        campus.record_presence("u1", "bldg-a")
        campus.record_presence("u1", "bldg-b")
        assert campus.buildings_observing("u1") == ("bldg-a", "bldg-b")
        assert campus.buildings_observing("u2") == ()

    def test_a_dark_shard_fails_calls_instead_of_queueing(self):
        campus = _campus()
        campus.mark_down("bldg-a")
        with pytest.raises(NetworkError):
            campus.router.call_building("bldg-a", "get_policy_document", {})
        # The sibling shard is untouched.
        campus.router.call_building("bldg-b", "get_policy_document", {})

    def test_recovery_requires_storage(self):
        campus = _campus()
        campus.mark_down("bldg-a")
        with pytest.raises(FederationError):
            campus.recover_shard("bldg-a", NOON)


class TestSharedRegistryTotals:
    """Shards, bus and admission share one registry; each stats struct
    owns its counts and the registry sums the structs on a shared key."""

    def test_tracked_counters_sum_across_shards(self):
        registry = MetricsRegistry()
        admission = AdmissionController(seed=3, metrics=registry)
        campus = Campus(
            BUILDINGS, seed=11, floors=1, rooms_per_floor=2,
            metrics=registry, admission=admission,
        )
        residents = [_resident(campus, building_id) for building_id in BUILDINGS]
        for tick in range(3):
            now = NOON + 60.0 * tick
            for inhabitant in residents:
                shard = campus.shard(campus.home_of[inhabitant.user_id])
                _observe(campus, shard, inhabitant, _rooms(shard)[tick % 2], now)
                _locate(campus, shard.building_id, inhabitant.user_id, now)
        shards = campus.shards()
        owners = {
            "capture": [shard.tippers.sensor_manager.stats for shard in shards],
            "table": [shard.tippers.engine.stats for shard in shards],
            "bus": [campus.bus.stats],
            "ledger": [admission.ledger],
        }
        assert all(stats.sampled for stats in owners["capture"])
        assert all(stats.hits + stats.misses for stats in owners["table"])
        tracked = [
            ("capture_observations_total", {"stage": "sampled"}, "capture", "sampled"),
            ("capture_observations_total", {"stage": "stored"}, "capture", "stored"),
            ("capture_dropped_total", {"phase": "capture"}, "capture", "dropped_capture"),
            ("capture_dropped_total", {"phase": "storage"}, "capture", "dropped_storage"),
            ("capture_degraded_total", None, "capture", "degraded"),
            ("capture_write_failures_total", None, "capture", "write_failures"),
            ("enforcement_table_total", {"result": "hit"}, "table", "hits"),
            ("enforcement_table_total", {"result": "miss"}, "table", "misses"),
            ("enforcement_table_total", {"result": "uncacheable"}, "table", "uncacheable"),
            ("bus_attempts_total", None, "bus", "calls"),
            ("bus_dropped_total", None, "bus", "dropped"),
            ("bus_errors_total", None, "bus", "errors"),
            ("bus_bytes_sent_total", None, "bus", "bytes_sent"),
            ("bus_bytes_received_total", None, "bus", "bytes_received"),
            ("bus_simulated_latency_seconds_total", None, "bus", "simulated_latency_s"),
            ("admission_checked_total", None, "ledger", "checked"),
            ("admission_injected_arrivals_total", None, "ledger", "injected_arrivals"),
            ("brownout_responses_total", None, "ledger", "brownouts"),
        ]
        for name, labels, owner, field in tracked:
            expected = sum(getattr(stats, field) for stats in owners[owner])
            assert registry.total(name, labels) == expected, name
        assert registry.total("admission_checked_total") == len(residents) * 3


class TestCrashRecovery:
    def test_recovered_shard_replays_and_rejoins(self, tmp_path):
        campus = _campus(storage_root=str(tmp_path))
        shard_a = campus.shard("bldg-a")
        inhabitant = _resident(campus, "bldg-a")
        _observe(campus, shard_a, inhabitant, _rooms(shard_a)[0], NOON)
        before = campus.router.call_building(
            "bldg-a", "dsar_report",
            {"user_id": inhabitant.user_id, "now": NOON},
        )
        assert before["observations_total"] > 0

        campus.mark_down("bldg-a")
        with pytest.raises(NetworkError):
            _locate(campus, "bldg-a", inhabitant.user_id, NOON)

        report = campus.recover_shard("bldg-a", NOON)
        assert report.frames_replayed > 0
        assert not campus.shard("bldg-a").down
        after = campus.router.call_building(
            "bldg-a", "dsar_report",
            {"user_id": inhabitant.user_id, "now": NOON},
        )
        assert after["observations_total"] == before["observations_total"]

    def test_recovery_reseeds_visitors_as_roaming(self, tmp_path):
        campus = _campus(storage_root=str(tmp_path))
        shard_a = campus.shard("bldg-a")
        visitor = _resident(campus, "bldg-b")
        shard_a.tippers.register_roaming_user(visitor.profile, "bldg-b")
        _observe(
            campus, shard_a, visitor, _rooms(shard_a)[0], NOON, visitor=True
        )
        campus.mark_down("bldg-a")
        campus.recover_shard("bldg-a", NOON)
        rebuilt = campus.shard("bldg-a").tippers
        assert rebuilt.roaming_home_of(visitor.user_id) == "bldg-b"


class TestCampusDSAR:
    def _well_travelled(self, campus):
        """One bldg-a resident observed in both buildings."""
        inhabitant = _resident(campus, "bldg-a")
        shard_a = campus.shard("bldg-a")
        shard_b = campus.shard("bldg-b")
        shard_b.tippers.register_roaming_user(inhabitant.profile, "bldg-a")
        _observe(campus, shard_a, inhabitant, _rooms(shard_a)[0], NOON)
        _observe(
            campus, shard_b, inhabitant, _rooms(shard_b)[0], NOON + 60.0,
            visitor=True,
        )
        return inhabitant

    def test_access_report_fans_out_to_every_observing_shard(self):
        campus = _campus()
        inhabitant = self._well_travelled(campus)
        report = campus_access_report(campus, inhabitant.user_id, NOON + 120.0)
        assert report.home_building == "bldg-a"
        assert report.buildings == ("bldg-a", "bldg-b")
        assert set(report.per_building) == {"bldg-a", "bldg-b"}
        assert all(
            counts["observations"] > 0
            for counts in report.per_building.values()
        )
        assert report.observations_total == sum(
            counts["observations"] for counts in report.per_building.values()
        )
        assert report.unreachable == ()

    def test_erasure_is_campus_wide_and_idempotent(self):
        campus = _campus()
        inhabitant = self._well_travelled(campus)
        now = NOON + 120.0
        access = campus_access_report(campus, inhabitant.user_id, now)
        receipt = campus_erase_subject(campus, inhabitant.user_id, now)
        assert receipt.buildings == ("bldg-a", "bldg-b")
        assert receipt.erased_observations == access.observations_total
        again = campus_erase_subject(campus, inhabitant.user_id, now + 60.0)
        assert again.erased_observations == 0

    def test_fanout_always_includes_the_home_shard(self):
        campus = _campus()
        inhabitant = _resident(campus, "bldg-a")
        # Never observed anywhere: preferences still live at home.
        report = campus_access_report(campus, inhabitant.user_id, NOON)
        assert report.buildings == ("bldg-a",)

    def test_dark_shards_are_reported_unreachable(self):
        campus = _campus()
        inhabitant = self._well_travelled(campus)
        campus.mark_down("bldg-b")
        report = campus_access_report(campus, inhabitant.user_id, NOON + 120.0)
        assert report.unreachable == ("bldg-b",)
        assert set(report.per_building) == {"bldg-a"}


class TestRoamingHandoff:
    def test_handoff_registers_and_marks_visited_decisions(self):
        campus = _campus()
        inhabitant = _resident(campus, "bldg-a")
        assistant = _assistant(campus, inhabitant)
        shard_b = campus.shard("bldg-b")

        result = _roam(campus, assistant, inhabitant, "bldg-b")
        assert result.newly_added
        assert not result.re_entry
        assert shard_b.tippers.roaming_home_of(inhabitant.user_id) == "bldg-a"

        _observe(
            campus, shard_b, inhabitant, _rooms(shard_b)[0], NOON,
            visitor=True,
        )
        response = _locate(campus, "bldg-b", inhabitant.user_id, NOON)
        assert response["allowed"]
        assert response["location"] is not None
        assert any(
            reason.startswith("roaming:bldg-a")
            for reason in response["reasons"]
        )

    def test_returning_home_clears_the_roaming_mark(self):
        campus = _campus()
        inhabitant = _resident(campus, "bldg-a")
        assistant = _assistant(campus, inhabitant)
        _roam(campus, assistant, inhabitant, "bldg-b")
        home = _roam(campus, assistant, inhabitant, "bldg-a")
        assert not home.newly_added  # already a local resident
        assert campus.shard("bldg-a").tippers.roaming_home_of(
            inhabitant.user_id
        ) is None
        back = _roam(campus, assistant, inhabitant, "bldg-b")
        assert back.re_entry


class _PartialOutageShard:
    """Wraps a real shard: submits beyond a budget fail while ``outage``.

    Everything else passes straight through, so registration and
    discovery keep working while preference re-pushes fail -- the shape
    of a shard whose preference store is briefly unavailable.
    """

    def __init__(self, inner, allow_submits=1):
        self._inner = inner
        self.outage = True
        self.remaining = allow_submits
        self.accepted = []

    def handle(self, method, payload):
        if method == "submit_preference":
            if self.outage and self.remaining <= 0:
                raise NetworkError("injected preference-store outage")
            self.remaining -= 1
            self.accepted.append(payload["preference"]["preference_id"])
        return self._inner.handle(method, payload)


class TestRoamingEdgeCases:
    def test_handoff_during_policy_fetch_outage_fails_closed(self):
        """The control plane hands off; the data plane denies, closed."""
        campus = _campus()
        inhabitant = _resident(campus, "bldg-a")
        assistant = _assistant(campus, inhabitant)
        shard_b = campus.shard("bldg-b")

        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL))
        )
        injector.install_policy_store(shard_b.tippers.store)
        try:
            # Registration is campus metadata, not a policy decision:
            # the handoff itself must survive the outage.
            result = _roam(campus, assistant, inhabitant, "bldg-b")
            assert result.newly_added
            response = _locate(campus, "bldg-b", inhabitant.user_id, NOON)
            assert response["allowed"] is False
            assert response["location"] is None
            assert any(
                "fail-closed" in reason for reason in response["reasons"]
            )
        finally:
            injector.uninstall()
        # Outage over: the same question is no longer failed closed.
        recovered = _locate(campus, "bldg-b", inhabitant.user_id, NOON)
        assert not any(
            "fail-closed" in reason for reason in recovered["reasons"]
        )

    def test_reentry_resumes_a_partial_preference_repush(self):
        campus = _campus()
        inhabitant = _resident(campus, "bldg-a")
        assistant = _assistant(campus, inhabitant)
        assistant.submit_preference(
            catalog.preference_2_no_location(inhabitant.user_id)
        )
        office = _rooms(campus.shard("bldg-a"))[0]
        assistant.submit_preference(
            catalog.preference_1_office_after_hours(
                inhabitant.user_id, office
            )
        )

        shard_b = campus.shard("bldg-b")
        wrapper = _PartialOutageShard(shard_b.tippers, allow_submits=1)
        campus.bus.unregister(shard_b.endpoint)
        campus.bus.register(shard_b.endpoint, wrapper)

        first = _roam(campus, assistant, inhabitant, "bldg-b")
        assert first.preferences_pushed == 1
        assert first.preferences_pending == 1
        assert len(wrapper.accepted) == 1

        wrapper.outage = False
        second = _roam(campus, assistant, inhabitant, "bldg-b")
        assert second.re_entry
        # Only the preference the shard never acknowledged is re-sent.
        assert second.preferences_pushed == 1
        assert second.preferences_pending == 0
        assert len(wrapper.accepted) == 2
        assert len(set(wrapper.accepted)) == 2

        third = _roam(campus, assistant, inhabitant, "bldg-b")
        assert third.preferences_pushed == 0
        assert len(wrapper.accepted) == 2  # never double-pushed

    def test_roaming_into_a_building_with_a_quarantined_sensor(self):
        campus = _campus()
        shard_b = campus.shard("bldg-b")
        injector = FaultInjector(
            single_spec_plan(
                FaultSpec(kind=FaultKind.SENSOR_STALL, target="ap-01")
            )
        )
        injector.install_sensor_manager(shard_b.tippers.sensor_manager)
        try:
            empty = BuildingWorld(shard_b.spatial, [], seed=3)
            for tick in range(3):
                shard_b.tippers.tick(NOON + 60.0 * tick, empty)
            assert "ap-01" in shard_b.supervisor.quarantined()

            inhabitant = _resident(campus, "bldg-a")
            assistant = _assistant(campus, inhabitant)
            result = _roam(campus, assistant, inhabitant, "bldg-b")
            assert result.newly_added

            # The healthy access point still captures the roamer.
            now = NOON + 600.0
            _observe(
                campus, shard_b, inhabitant, _rooms(shard_b)[1], now,
                visitor=True,
            )
            response = _locate(campus, "bldg-b", inhabitant.user_id, now)
            assert response["allowed"]
            assert response["location"] is not None
            assert any(
                reason.startswith("roaming:bldg-a")
                for reason in response["reasons"]
            )
        finally:
            injector.uninstall()
