"""Unit tests for the inference engine (processing)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.language.duration import Duration
from repro.core.policy.building import BuildingPolicy
from repro.sensors.base import Observation
from repro.spatial.model import build_simple_building
from repro.tippers.bms import TIPPERS
from repro.tippers.datastore import Datastore
from repro.tippers.inference import (
    LOCATION_SENSOR_TYPES,
    InferenceEngine,
    LocationEstimate,
)


def sighting(timestamp, subject, space, sensor_type="wifi_access_point"):
    return Observation.create(
        sensor_id="s",
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id=space,
        payload={},
        subject_id=subject,
    )


def motion(timestamp, space, moving=True):
    return Observation.create(
        sensor_id="m",
        sensor_type="motion_sensor",
        timestamp=timestamp,
        space_id=space,
        payload={"motion": 1 if moving else 0},
    )


@pytest.fixture
def engine():
    datastore = Datastore()
    spatial = build_simple_building("b", 2, 4)
    return InferenceEngine(datastore, spatial), datastore


class TestOccupancy:
    def test_motion_implies_occupied(self, engine):
        inference, datastore = engine
        datastore.insert(motion(100.0, "b-1001"))
        assert inference.is_occupied("b-1001", 150.0)

    def test_zero_motion_not_occupied(self, engine):
        inference, datastore = engine
        datastore.insert(motion(100.0, "b-1001", moving=False))
        assert not inference.is_occupied("b-1001", 150.0)

    def test_stale_motion_expires(self, engine):
        inference, datastore = engine
        datastore.insert(motion(100.0, "b-1001"))
        assert not inference.is_occupied("b-1001", 100.0 + 1000.0, window_s=300.0)

    def test_wifi_sighting_implies_occupied(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        assert inference.is_occupied("b-1001", 150.0)

    def test_occupant_count_distinct(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        datastore.insert(sighting(110.0, "mary", "b-1001"))
        datastore.insert(sighting(120.0, "bob", "b-1001"))
        assert inference.occupant_count("b-1001", 150.0) == 2

    def test_occupancy_map(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        datastore.insert(sighting(100.0, "bob", "b-2001"))
        assert inference.occupancy_map(150.0) == {"b-1001": 1, "b-2001": 1}


class TestLocation:
    def test_locate_latest_wins(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        datastore.insert(sighting(200.0, "mary", "b-1002", "bluetooth_beacon"))
        estimate = inference.locate("mary", 250.0)
        assert estimate.space_id == "b-1002"
        assert estimate.source_sensor_type == "bluetooth_beacon"

    def test_locate_outside_window(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        assert inference.locate("mary", 100.0 + 10000.0, window_s=900.0) is None

    def test_locate_unknown_subject(self, engine):
        inference, _ = engine
        assert inference.locate("ghost", 100.0) is None

    def test_is_present(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        assert inference.is_present("mary", 150.0)
        assert not inference.is_present("bob", 150.0)

    def test_people_in_exact_space(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        datastore.insert(sighting(100.0, "bob", "b-1002"))
        assert inference.people_in("b-1001", 150.0) == ["mary"]

    def test_people_in_containing_space(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        datastore.insert(sighting(100.0, "bob", "b-2001"))
        assert inference.people_in("b-f1", 150.0) == ["mary"]
        assert inference.people_in("b", 150.0) == ["bob", "mary"]

    def test_person_moving_counted_once(self, engine):
        inference, datastore = engine
        datastore.insert(sighting(100.0, "mary", "b-1001"))
        datastore.insert(sighting(200.0, "mary", "b-2001"))
        assert inference.people_in("b-1001", 250.0) == []
        assert inference.people_in("b-2001", 250.0) == ["mary"]


class TestActivityPatterns:
    def fill_day(self, datastore, subject, day, arrival_h, departure_h):
        base = day * 86400.0
        datastore.insert(sighting(base + arrival_h * 3600.0, subject, "b-1001"))
        datastore.insert(sighting(base + (arrival_h + 2) * 3600.0, subject, "b-1001"))
        datastore.insert(sighting(base + departure_h * 3600.0, subject, "b-1001"))

    def test_daily_bounds(self, engine):
        inference, datastore = engine
        self.fill_day(datastore, "mary", 0, 9.0, 17.0)
        bounds = inference.daily_bounds("mary", 0)
        assert bounds[0] == pytest.approx(9.0)
        assert bounds[1] == pytest.approx(17.0)

    def test_daily_bounds_no_data(self, engine):
        inference, _ = engine
        assert inference.daily_bounds("mary", 0) is None

    def test_activity_pattern_averages_days(self, engine):
        inference, datastore = engine
        self.fill_day(datastore, "mary", 0, 9.0, 17.0)
        self.fill_day(datastore, "mary", 1, 11.0, 19.0)
        pattern = inference.activity_pattern("mary")
        assert pattern.days_observed == 2
        assert pattern.mean_arrival_hour == pytest.approx(10.0)
        assert pattern.mean_departure_hour == pytest.approx(18.0)
        assert pattern.mean_hours_in_building == pytest.approx(8.0)

    def test_guess_role_heuristics(self, engine):
        inference, datastore = engine
        self.fill_day(datastore, "staffer", 0, 7.0, 16.5)
        self.fill_day(datastore, "grad", 0, 11.0, 22.0)
        self.fill_day(datastore, "prof", 0, 9.0, 18.0)
        assert inference.guess_role("staffer") == "staff"
        assert inference.guess_role("grad") == "grad-student"
        assert inference.guess_role("prof") == "faculty"

    def test_guess_role_without_data(self, engine):
        inference, _ = engine
        assert inference.guess_role("ghost") is None

    def test_deidentified_data_defeats_attack(self, engine):
        inference, datastore = engine
        # Aggregate-granularity observations carry no subject.
        datastore.insert(sighting(9 * 3600.0, None, "b-1001"))
        assert inference.guess_role("mary") is None


class TestRetentionAtReadTime:
    """Reads that carry ``now`` skip readings past their stream's
    retention, whether or not a sweep has purged them yet."""

    @pytest.fixture
    def tippers(self, small_building, mary):
        bms = TIPPERS(small_building, "b")
        bms.define_policy(
            BuildingPolicy(
                policy_id="brief",
                name="brief",
                description="keeps sightings and motion for one minute",
                sensor_types=("wifi_access_point", "motion_sensor"),
                retention=Duration.parse("PT1M"),
            )
        )
        bms.add_user(mary)
        bms.datastore.insert(sighting(100.0, "mary", "b-1001"))
        bms.datastore.insert(motion(100.0, "b-1001"))
        return bms

    def test_unexpired_readings_are_returned(self, tippers):
        inference = tippers.inference
        assert inference.locate("mary", 150.0).space_id == "b-1001"
        assert inference.is_occupied("b-1001", 150.0)
        assert inference.occupant_count("b-1001", 150.0) == 1
        assert inference.occupancy_map(150.0) == {"b-1001": 1}
        assert inference.people_in("b-1001", 150.0) == ["mary"]

    def test_expired_readings_are_not_returned_before_a_sweep(self, tippers):
        inference = tippers.inference
        now = 200.0  # inside every read window, 40 s past retention
        assert inference.locate("mary", now) is None
        assert not inference.is_occupied("b-1001", now)
        assert inference.occupant_count("b-1001", now) == 0
        assert inference.occupancy_map(now) == {}
        assert inference.people_in("b-1001", now) == []
        assert tippers.datastore.count() == 2, "no sweep has run"

    def test_a_retired_policy_no_longer_cuts(self, tippers):
        tippers.policy_manager.retire("brief")
        assert tippers.inference.locate("mary", 200.0).space_id == "b-1001"


def _locate_by_query(datastore, subject_id, now, window_s=900.0):
    """``InferenceEngine.locate`` as it was written over ``Datastore.query``:
    the sorted window, keeping the first reading with the newest
    timestamp."""
    since = max(0.0, now - window_s)
    best = None
    for observation in datastore.query(subject_id=subject_id, since=since):
        if observation.sensor_type not in LOCATION_SENSOR_TYPES:
            continue
        if observation.space_id is None:
            continue
        if best is None or observation.timestamp > best.timestamp:
            best = observation
    if best is None:
        return None
    return LocationEstimate(
        subject_id=subject_id,
        space_id=best.space_id,
        timestamp=best.timestamp,
        source_sensor_type=best.sensor_type,
        granularity=best.granularity,
    )


#: Few distinct timestamps, so that readings tie; inserted in any order.
_readings = st.lists(
    st.builds(
        Observation,
        observation_id=st.integers(0, 12),
        sensor_id=st.sampled_from(["s1", "s2"]),
        sensor_type=st.sampled_from(LOCATION_SENSOR_TYPES + ("motion_sensor",)),
        timestamp=st.sampled_from([0.0, 1.0, 50.0, 100.0, 100.5, 1000.0]),
        space_id=st.one_of(st.none(), st.sampled_from(["b-1001", "b-1002"])),
        payload=st.just({}),
        subject_id=st.sampled_from(["mary", "bob"]),
        granularity=st.sampled_from(["precise", "coarse"]),
    ),
    max_size=12,
)


@given(
    readings=_readings,
    now=st.sampled_from([0.0, 100.0, 100.5, 950.0, 1000.0, 2000.0]),
    window_s=st.sampled_from([0.0, 0.5, 900.0]),
)
def test_one_pass_locate_matches_sorted_window(readings, now, window_s):
    datastore = Datastore()
    for observation in readings:
        datastore.insert(observation)
    engine = InferenceEngine(datastore)
    for subject in ("mary", "bob", "nobody"):
        assert engine.locate(subject, now, window_s) == _locate_by_query(
            datastore, subject, now, window_s
        )


def test_equal_timestamps_lowest_observation_id_wins():
    datastore = Datastore()
    for observation_id, space in ((7, "b-1002"), (3, "b-1001"), (5, "b-1002")):
        datastore.insert(
            Observation(observation_id, "s", "wifi_access_point", 10.0, space,
                        {}, subject_id="mary")
        )
    estimate = InferenceEngine(datastore).locate("mary", 20.0)
    assert estimate is not None and estimate.space_id == "b-1001"
