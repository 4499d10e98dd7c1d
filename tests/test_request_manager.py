"""Unit tests for the request manager (sharing path)."""

import pytest

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.core.policy.preference import UserPreference
from repro.errors import ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.tippers.bms import TIPPERS
from repro.tippers.request_manager import _brownout_granularity
from repro.users.profile import UserProfile

SVC = ("concierge", RequesterKind.BUILDING_SERVICE)


def occupy(tippers, world, person, mac, space, now=43200.0, ticks=1):
    """Place a person and run capture so the building knows about it."""
    world.put(person, mac, space)
    for i in range(ticks):
        tippers.tick(now + i * 61.0, world)
    return now + ticks * 61.0


class TestLocateUser:
    def test_allowed_and_precise(self, tippers, world):
        now = occupy(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        response = tippers.request_manager.locate_user(*SVC, "mary", now)
        assert response.allowed
        assert response.value.space_id == "b-1001"
        assert response.granularity is GranularityLevel.PRECISE

    def test_unknown_user_rejected(self, tippers):
        with pytest.raises(ServiceError):
            tippers.request_manager.locate_user(*SVC, "ghost", 0.0)

    def test_optout_denies_before_data_access(self, tippers, world):
        now = occupy(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        response = tippers.request_manager.locate_user(*SVC, "mary", now + 1)
        assert not response.allowed
        assert response.value is None

    def test_granularity_cap_coarsens_release(self, tippers, world):
        now = occupy(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.submit_preference(
            UserPreference(
                preference_id="cap",
                user_id="mary",
                description="floor only",
                effect=Effect.ALLOW,
                categories=(DataCategory.LOCATION,),
                phases=(DecisionPhase.SHARING,),
                granularity_cap=GranularityLevel.COARSE,
            )
        )
        response = tippers.request_manager.locate_user(*SVC, "mary", now + 1)
        assert response.allowed
        assert response.value.space_id == "b-f1", "room coarsened to floor"
        assert response.granularity is GranularityLevel.COARSE

    def test_not_locatable_user_allowed_but_empty(self, tippers):
        response = tippers.request_manager.locate_user(*SVC, "bob", 43200.0)
        assert response.allowed
        assert response.value is None


class TestBrownout:
    @pytest.mark.parametrize(
        "granularity, levels, expected",
        [
            ("precise", 1, "coarse"),
            ("precise", 2, "building"),
            ("precise", 99, "building"),
            ("coarse", 1, "building"),
            # Already coarser than the floor: pass through untouched.
            ("aggregate", 2, "aggregate"),
            ("none", 1, "none"),
            ("precise", 0, "precise"),
        ],
    )
    def test_walks_lattice_to_floor(self, granularity, levels, expected):
        degraded = _brownout_granularity(GranularityLevel(granularity), levels)
        assert degraded is GranularityLevel(expected)

    def test_roaming_locate_is_not_counted_as_brownout(self, small_building):
        metrics = MetricsRegistry()
        bms = TIPPERS(small_building, "b", metrics=metrics)
        bms.define_policy(catalog.policy_service_sharing("b"))
        bms.register_roaming_user(
            UserProfile(user_id="visitor", name="Visitor"), "elsewhere"
        )
        response = bms.request_manager.locate_user(*SVC, "visitor", 43200.0)
        assert response.allowed
        assert bms.audit.records()[-1].reasons[-1] == "roaming:elsewhere"
        assert metrics.total("brownout_queries_total") == 0
        assert metrics.total("brownout_audited_total") == 0


class TestRoomOccupancy:
    def test_occupied_office(self, tippers, world):
        now = occupy(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        response = tippers.request_manager.room_occupancy(*SVC, "b-1001", now)
        assert response.allowed
        assert response.value is True

    def test_empty_office(self, tippers):
        response = tippers.request_manager.room_occupancy(*SVC, "b-1001", 43200.0)
        assert response.allowed
        assert response.value is False

    def test_unknown_space_rejected(self, tippers):
        with pytest.raises(ServiceError):
            tippers.request_manager.room_occupancy(*SVC, "atlantis", 0.0)

    def test_preference1_blocks_after_hours(self, tippers, world):
        tippers.submit_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        evening = 20 * 3600.0
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.tick(evening, world)
        blocked = tippers.request_manager.room_occupancy(*SVC, "b-1001", evening + 60)
        assert not blocked.allowed
        # At noon the same query is fine.
        noon = 12 * 3600.0 + 86400.0
        allowed = tippers.request_manager.room_occupancy(*SVC, "b-1001", noon)
        assert allowed.allowed

    def test_office_owner_resolution(self, tippers):
        assert tippers.directory.office_owner("b-1001") == "mary"
        assert tippers.directory.office_owner("b-2004") is None


class TestPeopleInSpace:
    def test_released_subject_to_preferences(self, tippers, world):
        now = 43200.0
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        world.put("bob", "aa:bb:cc:00:00:02", "b-1001")
        tippers.tick(now, world)
        tippers.submit_preference(
            UserPreference(
                preference_id="hide-bob",
                user_id="bob",
                description="hide presence",
                effect=Effect.DENY,
                categories=(DataCategory.PRESENCE,),
                phases=(DecisionPhase.SHARING,),
            )
        )
        response = tippers.request_manager.people_in_space(*SVC, "b-1001", now + 60)
        assert response.allowed
        assert response.value == ["mary"], "bob's presence withheld"


class TestOccupancyHeatmap:
    def test_small_groups_suppressed(self, tippers, world):
        now = 43200.0
        for index in range(3):
            mac = "aa:bb:cc:00:00:0%d" % (index + 1)
            user = ["mary", "bob"][index] if index < 2 else None
            if index == 2:
                from repro.users.profile import UserProfile

                tippers.add_user(
                    UserProfile(user_id="carol", name="Carol", device_macs=(mac,))
                )
                user = "carol"
            world.put(user, mac, "b-1001")
        world.put("nobody-known", "ff:ff:ff:ff:ff:ff", "b-1002")
        tippers.tick(now, world)
        response = tippers.request_manager.occupancy_heatmap(
            *SVC, now + 60, purpose=Purpose.ENERGY_MANAGEMENT, k=3
        )
        assert response.allowed
        assert response.value == {"b-1001": 3}, "k=3 suppresses the lone device"

    def test_denied_without_authorizing_policy(self, tippers):
        # Remove the sharing policy that covers occupancy aggregates.
        tippers.store.remove_policy("policy-service-sharing")
        response = tippers.request_manager.occupancy_heatmap(*SVC, 43200.0)
        assert not response.allowed

    def test_noisy_heatmap_is_perturbed_and_seeded(self, tippers, world):
        import random

        now = 43200.0
        for index, user in enumerate(("mary", "bob")):
            world.put(user, "aa:bb:cc:00:00:0%d" % (index + 1), "b-1001")
        tippers.tick(now, world)
        a = tippers.request_manager.occupancy_heatmap(
            *SVC, now + 60, k=1, epsilon=1.0, rng=random.Random(7)
        )
        b = tippers.request_manager.occupancy_heatmap(
            *SVC, now + 60, k=1, epsilon=1.0, rng=random.Random(7)
        )
        assert a.allowed and b.allowed
        assert a.value == b.value, "seeded noise is reproducible"
        assert any("laplace" in reason for reason in a.reasons)
        exact = tippers.request_manager.occupancy_heatmap(*SVC, now + 60, k=1)
        assert set(a.value) == set(exact.value)
        assert isinstance(list(a.value.values())[0], float)


class TestEventDetails:
    def setup_event(self, tippers):
        tippers.define_policy(catalog.policy_4_event_disclosure("b-1004"))
        tippers.policy_manager.register_event("icdcs", "b-1004")
        tippers.policy_manager.register_participant("icdcs", "mary")

    def test_unregistered_user_denied(self, tippers):
        self.setup_event(tippers)
        response = tippers.request_manager.event_details(
            *SVC, "icdcs", "bob", 43200.0
        )
        assert not response.allowed
        assert "not registered" in response.reasons[0]

    def test_registered_but_far_denied(self, tippers, world):
        self.setup_event(tippers)
        now = occupy(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-2002")
        response = tippers.request_manager.event_details(*SVC, "icdcs", "mary", now)
        assert not response.allowed
        assert "not nearby" in response.reasons[0]

    def test_registered_and_nearby_allowed(self, tippers, world):
        self.setup_event(tippers)
        # b-1002 is on the same floor as the event room b-1004.
        now = occupy(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1002")
        response = tippers.request_manager.event_details(*SVC, "icdcs", "mary", now)
        assert response.allowed
        assert response.value["space_id"] == "b-1004"

    def test_unlocatable_user_denied(self, tippers):
        self.setup_event(tippers)
        response = tippers.request_manager.event_details(
            *SVC, "icdcs", "mary", 43200.0
        )
        assert not response.allowed
