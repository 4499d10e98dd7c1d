"""One query reads about what it returns, however long the history.

Paper steps 9-10 read location and occupancy from the time-series
store, whose retention keeps days to months of readings.  A
``room_occupancy`` or ``locate_user`` answer must not cost more because
the building keeps more: the observations one call visits are counted
after 20 and after 320 minutes of readings, and must not grow.

A visit is any attribute read of a stored observation during the call;
the stored readings count their own reads, so the count is exact and
deterministic.
"""

from __future__ import annotations

from typing import Set

import pytest

from repro.core.policy import catalog
from repro.sensors.base import Observation
from repro.tippers.bms import TIPPERS

ROOMS = ("b-1001", "b-1002", "b-1003", "b-2001")
TICK_S = 60.0

#: Ids of the stored observations read since the last reset.
VISITED: Set[int] = set()


class CountedObservation(Observation):
    """An observation that records every read of its attributes."""

    def __getattribute__(self, name: str):
        VISITED.add(object.__getattribute__(self, "observation_id"))
        return object.__getattribute__(self, name)


def _reading(observation_id, sensor_type, timestamp, space_id, payload, subject_id=None):
    return CountedObservation(
        observation_id=observation_id,
        sensor_id="%s-%s" % (sensor_type, space_id),
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id=space_id,
        payload=payload,
        subject_id=subject_id,
    )


def _building(small_building, mary, bob, minutes: int) -> TIPPERS:
    """A building with ``minutes`` one-minute ticks of stored readings:
    motion in every room (b-1003 still, the others moving) and a WiFi
    sighting of each of mary and bob in their offices."""
    tippers = TIPPERS(small_building, "b", owner_name="UCI")
    tippers.define_policy(catalog.policy_2_emergency_location("b"))
    tippers.define_policy(catalog.policy_service_sharing("b"))
    tippers.define_policy(catalog.policy_1_comfort(list(ROOMS)))
    tippers.add_user(mary)
    tippers.add_user(bob)
    ids = iter(range(1, 10**6))
    for tick in range(minutes):
        now = tick * TICK_S
        for room in ROOMS:
            moving = 0 if room == "b-1003" else 1
            tippers.datastore.insert(
                _reading(next(ids), "motion_sensor", now, room, {"motion": moving})
            )
        for user, office in (("mary", "b-1001"), ("bob", "b-1002")):
            tippers.datastore.insert(
                _reading(next(ids), "wifi_access_point", now, office, {}, user)
            )
    return tippers


def _visits(tippers: TIPPERS, minutes: int):
    """Observations visited by each query op at the end of the history."""
    now = (minutes - 1) * TICK_S + TICK_S / 2
    requests = tippers.request_manager
    visits = {}
    for room in ROOMS:
        VISITED.clear()
        answer = requests.room_occupancy("svc", "building_service", room, now)
        visits[("room_occupancy", room)] = (answer.value, len(VISITED))
    for user in ("mary", "bob"):
        VISITED.clear()
        answer = requests.locate_user("svc", "building_service", user, now)
        visits[("locate_user", user)] = (answer.value.space_id, len(VISITED))
    return visits


@pytest.fixture
def short_and_long(small_building, mary, bob):
    return (
        _visits(_building(small_building, mary, bob, 20), 20),
        _visits(_building(small_building, mary, bob, 320), 320),
    )


def test_visits_do_not_grow_with_history(short_and_long):
    short, long = short_and_long
    assert short == long
    # Every answer reads something, and none reads more than the
    # readings of its own five-minute window.
    for op, (_, visited) in long.items():
        assert 1 <= visited <= 6, op


def test_answers_are_the_expected_ones(short_and_long):
    _, long = short_and_long
    assert long[("room_occupancy", "b-1001")][0] is True
    assert long[("room_occupancy", "b-1003")][0] is False
    assert long[("locate_user", "mary")][0] == "b-1001"
    assert long[("locate_user", "bob")][0] == "b-1002"
