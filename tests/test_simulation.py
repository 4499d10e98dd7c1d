"""Unit tests for the DBH simulation substrate."""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.simulation.dbh import (
    BEACON_COUNT,
    CAMERA_COUNT,
    POWER_METER_COUNT,
    WIFI_AP_COUNT,
    build_dbh_spatial,
    deploy_dbh_sensors,
    make_dbh_tippers,
)
from repro.simulation.inhabitants import Schedule, generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType


class TestDBHModel:
    def test_spatial_inventory(self):
        spatial = build_dbh_spatial()
        assert len(spatial.spaces_of_type(SpaceType.FLOOR)) == 6
        assert len(spatial.spaces_of_type(SpaceType.ROOM)) == 120
        spatial.validate()

    def test_meeting_rooms_and_coffee_tagged(self):
        spatial = build_dbh_spatial()
        meeting_rooms = [
            s for s in spatial.spaces_of_type(SpaceType.ROOM)
            if s.attributes.get("meeting_room") == "yes"
        ]
        coffee = [
            s for s in spatial.spaces_of_type(SpaceType.ROOM)
            if s.attributes.get("coffee_machine") == "yes"
        ]
        assert len(meeting_rooms) == 30  # every 4th of 120
        assert len(coffee) == 6  # one per floor

    def test_sensor_inventory_matches_paper(self):
        tippers = make_dbh_tippers(deploy_sensors=False)
        summary = deploy_dbh_sensors(tippers)
        assert summary.by_type["camera"] == CAMERA_COUNT == 40
        assert summary.by_type["wifi_access_point"] == WIFI_AP_COUNT == 60
        assert summary.by_type["bluetooth_beacon"] == BEACON_COUNT == 200
        assert summary.by_type["power_meter"] == POWER_METER_COUNT == 100
        assert summary.by_type["motion_sensor"] == 120
        assert summary.total == tippers.sensor_manager.count()


class TestSchedule:
    def test_in_building(self):
        schedule = Schedule(arrival_hour=9.0, departure_hour=17.0)
        assert schedule.in_building(12.0)
        assert not schedule.in_building(8.0)
        assert not schedule.in_building(17.0)

    def test_lunch_window(self):
        schedule = Schedule(arrival_hour=9.0, departure_hour=17.0, lunch_hour=12.0)
        assert schedule.at_lunch(12.25)
        assert not schedule.at_lunch(13.0)

    def test_invalid_hours(self):
        with pytest.raises(ReproError):
            Schedule(arrival_hour=18.0, departure_hour=9.0)


class TestInhabitants:
    def test_reproducible(self):
        spatial = build_dbh_spatial()
        a = generate_inhabitants(spatial, 20, seed=3)
        b = generate_inhabitants(spatial, 20, seed=3)
        assert [p.user_id for p in a] == [p.user_id for p in b]
        assert [p.profile.office_id for p in a] == [p.profile.office_id for p in b]

    def test_roles_and_offices(self):
        spatial = build_dbh_spatial()
        people = generate_inhabitants(spatial, 60, seed=1)
        roles = {next(iter(p.profile.groups)) for p in people}
        assert roles <= {"faculty", "staff", "grad-student", "undergrad"}
        for person in people:
            role = next(iter(person.profile.groups))
            if role == "undergrad":
                assert person.profile.office_id is None
            else:
                assert person.profile.office_id is not None

    def test_unique_devices(self):
        spatial = build_dbh_spatial()
        people = generate_inhabitants(spatial, 50, seed=1)
        macs = [m for p in people for m in p.profile.device_macs]
        assert len(macs) == len(set(macs))

    def test_negative_count_rejected(self):
        with pytest.raises(ReproError):
            generate_inhabitants(build_dbh_spatial(), -1)


class TestBuildingWorld:
    @pytest.fixture
    def world(self):
        spatial = build_dbh_spatial()
        people = generate_inhabitants(spatial, 10, seed=2)
        return BuildingWorld(spatial, people, seed=2), people

    def test_outside_before_arrival(self, world):
        sim, people = world
        sim.step(3 * 3600.0)  # 3am
        for person in people:
            assert sim.location_of(person.user_id) is None

    def test_office_workers_in_office_midmorning(self, world):
        sim, people = world
        sim.step(10.5 * 3600.0)
        for person in people:
            role = next(iter(person.profile.groups))
            if role in ("staff",) and person.schedule.in_building(10.5):
                loc = sim.location_of(person.user_id)
                office = person.profile.office_id
                assert loc is not None
                # Usually the office; occasionally the corridor.
                assert loc == office or loc.endswith("corridor")

    def test_lunch_gathers_people(self, world):
        sim, people = world
        sim.step(12.1 * 3600.0)
        lunchers = sim.occupants_of(sim.lunch_room)
        expected = [
            p.user_id
            for p in people
            if p.schedule.in_building(12.1) and p.schedule.at_lunch(12.1)
        ]
        # Everyone whose schedule says lunch is there; wanderers (e.g.
        # undergrads drifting between rooms) may join them.
        assert set(expected) <= set(lunchers)

    def test_devices_follow_people(self, world):
        sim, people = world
        sim.step(10.5 * 3600.0)
        person = next(
            p for p in people if sim.location_of(p.user_id) is not None
        )
        space = sim.location_of(person.user_id)
        macs = {d.device_mac for d in sim.devices_in(space)}
        assert person.profile.device_macs[0] in macs

    def test_power_scales_with_occupancy(self, world):
        sim, people = world
        sim.step(10.5 * 3600.0)
        occupied = next(
            s for s in (sim.location_of(p.user_id) for p in people) if s
        )
        assert sim.power_draw_of(occupied) > sim.power_draw_of("dbh-6020")

    def test_hvac_relaxation(self, world):
        sim, _ = world
        room = "dbh-1001"
        sim.set_hvac_setpoint(room, 75.0)
        before = sim.temperature_of(room)
        for i in range(20):
            sim.step(i * 600.0, dt_s=600.0)
        after = sim.temperature_of(room)
        assert abs(after - 75.0) < abs(before - 75.0)

    def test_teleport_and_credentials(self, world):
        sim, people = world
        sim.teleport(people[0].user_id, "dbh-1001")
        assert sim.location_of(people[0].user_id) == "dbh-1001"
        sim.present_credential("dbh-1001", people[0].user_id)
        assert sim.credential_presented("dbh-1001") == "cred:%s" % people[0].user_id
        assert sim.credential_presented("dbh-1001") is None, "consumed"
        with pytest.raises(ReproError):
            sim.teleport("ghost", "dbh-1001")

    def test_occupants_map_matches_a_scan_after_every_move(self, world):
        """The space -> occupants map equals a scan of every location
        after each of the four ways a location changes."""
        sim, people = world
        spaces = sorted(s.space_id for s in build_dbh_spatial())

        def assert_matches_scan():
            assert sim.occupants_of(None) == sorted(
                uid for uid, loc in sim._locations.items() if loc is None
            )
            for space in spaces:
                scanned = sorted(
                    uid for uid, loc in sim._locations.items() if loc == space
                )
                assert sim.occupants_of(space) == scanned, space
                assert sim.motion_in(space) == (
                    bool(scanned)
                    or any(
                        previous == space and sim._locations.get(uid) != space
                        for uid, previous in sim._previous_locations.items()
                    )
                ), space

        assert_matches_scan()
        sim.step(10.5 * 3600.0)
        assert_matches_scan()
        sim.teleport(people[0].user_id, "dbh-1001")
        assert_matches_scan()
        guest = dataclasses.replace(
            people[1], profile=dataclasses.replace(people[1].profile, user_id="guest")
        )
        sim.add_visitor(guest)
        assert_matches_scan()
        sim.teleport("guest", "dbh-1001")
        assert_matches_scan()
        sim.step(10.6 * 3600.0)
        assert_matches_scan()
        sim.remove_visitor("guest")
        assert_matches_scan()

    def test_motion_after_departure(self, world):
        sim, people = world
        sim.teleport(people[0].user_id, "dbh-1001")
        sim._previous_locations = dict(sim._locations)
        sim.teleport(people[0].user_id, None)
        assert sim.motion_in("dbh-1001"), "motion lingers one tick after leaving"
