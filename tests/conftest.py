"""Shared fixtures: a small building, users, and a wired TIPPERS."""

from __future__ import annotations

import pytest

from repro.core.policy import catalog
from repro.net import resilience
from repro.sensors.environment import EnvironmentView, PresentDevice
from repro.spatial.model import SpatialModel, build_simple_building
from repro.tippers.bms import TIPPERS
from repro.users.profile import UserProfile


@pytest.fixture
def small_building() -> SpatialModel:
    """A 2-floor, 4-rooms-per-floor building named ``b``.

    Rooms: b-1001..b-1004 (floor 1), b-2001..b-2004 (floor 2); floors
    b-f1/b-f2 with corridors b-f1-corridor/b-f2-corridor.
    """
    return build_simple_building("b", floors=2, rooms_per_floor=4)


@pytest.fixture
def mary() -> UserProfile:
    return UserProfile(
        user_id="mary",
        name="Mary",
        groups=frozenset({"faculty"}),
        department="ics",
        office_id="b-1001",
        device_macs=("aa:bb:cc:00:00:01",),
    )


@pytest.fixture
def bob() -> UserProfile:
    return UserProfile(
        user_id="bob",
        name="Bob",
        groups=frozenset({"grad-student"}),
        department="ics",
        office_id="b-1002",
        device_macs=("aa:bb:cc:00:00:02",),
    )


class StaticWorld(EnvironmentView):
    """A hand-positioned world for unit tests."""

    def __init__(self) -> None:
        self.positions: dict = {}
        self.temperatures: dict = {}
        self.credentials: dict = {}

    def put(self, person_id: str, mac: str, space_id: str, has_iota: bool = True) -> None:
        self.positions.setdefault(space_id, []).append(
            PresentDevice(person_id=person_id, device_mac=mac, has_iota=has_iota)
        )

    def clear(self) -> None:
        self.positions.clear()

    def devices_in(self, space_id: str):
        return list(self.positions.get(space_id, []))

    def temperature_of(self, space_id: str) -> float:
        return self.temperatures.get(space_id, 70.0)

    def credential_presented(self, space_id: str):
        return self.credentials.pop(space_id, None)


@pytest.fixture
def world() -> StaticWorld:
    return StaticWorld()


@pytest.fixture
def tippers(small_building, mary, bob) -> TIPPERS:
    """TIPPERS over the small building with the paper's core policies.

    Policies: emergency location (mandatory), service sharing, comfort.
    Users: mary (office b-1001) and bob (office b-1002).  One WiFi AP
    and one motion sensor in each office.
    """
    bms = TIPPERS(small_building, "b", owner_name="UCI")
    bms.define_policy(catalog.policy_2_emergency_location("b"))
    bms.define_policy(catalog.policy_service_sharing("b"))
    bms.define_policy(
        catalog.policy_1_comfort(["b-1001", "b-1002", "b-1003", "b-1004"])
    )
    bms.add_user(mary)
    bms.add_user(bob)
    bms.deploy_sensor("wifi_access_point", "ap-1", "b-1001")
    bms.deploy_sensor("wifi_access_point", "ap-2", "b-1002")
    bms.deploy_sensor("motion_sensor", "motion-1", "b-1001")
    bms.deploy_sensor("motion_sensor", "motion-2", "b-1002")
    bms.deploy_sensor("temperature_sensor", "temp-1", "b-1001")
    bms.deploy_sensor("hvac_unit", "hvac-1", "b-1001")
    return bms


@pytest.fixture
def thresholds(monkeypatch):
    """Set the circuit-breaker constants for one test."""

    def set_thresholds(
        failure_threshold=resilience.FAILURE_THRESHOLD,
        cooldown_rejections=resilience.COOLDOWN_REJECTIONS,
    ):
        monkeypatch.setattr(resilience, "FAILURE_THRESHOLD", failure_threshold)
        monkeypatch.setattr(resilience, "COOLDOWN_REJECTIONS", cooldown_rejections)

    return set_thresholds
