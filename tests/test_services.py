"""Unit tests for the building services."""

import pytest

from repro.core.language.vocabulary import DataCategory, GranularityLevel
from repro.core.policy import catalog
from repro.core.policy.base import RequesterKind
from repro.core.policy.preference import ServicePermission
from repro.errors import ServiceError
from repro.services.concierge import SmartConcierge
from repro.services.food_delivery import FoodDeliveryService
from repro.services.meeting import SmartMeeting

NOON = 12 * 3600.0


def see(tippers, world, person, mac, space, now=NOON):
    world.put(person, mac, space)
    tippers.tick(now, world)
    return now + 60.0


class TestServiceBase:
    def test_policy_documents_valid(self, tippers):
        for service in (
            SmartConcierge(tippers),
            SmartMeeting(tippers),
            FoodDeliveryService(tippers),
        ):
            document = service.policy_document()
            assert document.service_id == service.service_id
            document.to_dict()  # validates against the Figure-3 schema

    def test_requester_kinds(self, tippers):
        assert SmartConcierge(tippers).requester_kind is RequesterKind.BUILDING_SERVICE
        assert (
            FoodDeliveryService(tippers).requester_kind
            is RequesterKind.THIRD_PARTY_SERVICE
        )

    def test_empty_service_id_rejected(self, tippers):
        with pytest.raises(ServiceError):
            SmartConcierge(tippers, service_id="")


class TestConcierge:
    def test_find_room_by_name(self, tippers):
        concierge = SmartConcierge(tippers)
        rooms = concierge.find_room("1001")
        assert [r.space_id for r in rooms] == ["b-1001"]

    def test_rooms_with_attribute(self, tippers):
        tippers.spatial.get("b-1003").attributes["coffee_machine"] = "yes"
        concierge = SmartConcierge(tippers)
        assert [r.space_id for r in concierge.rooms_with("coffee_machine")] == ["b-1003"]

    def test_find_person_policy_checked(self, tippers, world):
        concierge = SmartConcierge(tippers)
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        assert concierge.find_person("mary", now).allowed
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        assert not concierge.find_person("mary", now + 1).allowed

    def test_directions_same_floor(self, tippers):
        concierge = SmartConcierge(tippers)
        route = concierge.directions("b-1001", "b-1003")
        assert route.from_space_id == "b-1001"
        assert route.to_space_id == "b-1003"
        assert route.distance_m > 0
        assert "b-f1-corridor" in route.waypoints

    def test_directions_across_floors_cost_more(self, tippers):
        concierge = SmartConcierge(tippers)
        same = concierge.directions("b-1001", "b-1002")
        cross = concierge.directions("b-1001", "b-2001")
        assert cross.distance_m > same.distance_m

    def test_directions_unknown_space(self, tippers):
        with pytest.raises(ServiceError):
            SmartConcierge(tippers).directions("b-1001", "atlantis")

    def test_directions_to_nearest_respects_optout(self, tippers, world):
        tippers.spatial.get("b-1003").attributes["coffee_machine"] = "yes"
        concierge = SmartConcierge(tippers)
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        assert concierge.directions_to_nearest("mary", "coffee_machine", now) is not None
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        assert concierge.directions_to_nearest("mary", "coffee_machine", now + 1) is None

    def test_directions_to_nearest_without_amenity(self, tippers, world):
        concierge = SmartConcierge(tippers)
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        assert concierge.directions_to_nearest("mary", "holodeck", now) is None


class TestSmartMeeting:
    def test_free_rooms_excludes_occupied(self, tippers, world):
        meeting = SmartMeeting(tippers)
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        free = meeting.free_rooms(now + 3600, now + 7200, now)
        assert "b-1001" not in free
        assert "b-1002" in free

    def test_booking_and_double_booking(self, tippers):
        meeting = SmartMeeting(tippers)
        booked = meeting.book("mary", ["bob"], NOON, NOON + 3600, NOON - 60, space_id="b-1003")
        assert set(booked.participant_ids) == {"mary", "bob"}
        free = meeting.free_rooms(NOON, NOON + 1800, NOON - 60)
        assert "b-1003" not in free

    def test_booking_picks_free_room(self, tippers):
        from repro.spatial.model import SpaceType

        meeting = SmartMeeting(tippers)
        booked = meeting.book("mary", [], NOON, NOON + 3600, NOON - 60)
        rooms = {s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)}
        assert booked.space_id in rooms

    def test_unknown_participant_rejected(self, tippers):
        with pytest.raises(ServiceError):
            SmartMeeting(tippers).book("mary", ["ghost"], 0.0, 10.0, 0.0)

    def test_empty_window_rejected(self, tippers):
        with pytest.raises(ServiceError):
            SmartMeeting(tippers).free_rooms(10.0, 10.0, 0.0)

    def test_meetings_of_and_cancel(self, tippers):
        meeting = SmartMeeting(tippers)
        booked = meeting.book("mary", ["bob"], 0.0, 10.0, 0.0, space_id="b-1003")
        assert meeting.meetings_of("bob") == [booked]
        meeting.cancel(booked.meeting_id)
        assert meeting.meetings_of("bob") == []

    def test_details_hidden_from_non_participant(self, tippers):
        meeting = SmartMeeting(tippers)
        booked = meeting.book("mary", [], 0.0, 10.0, 0.0, space_id="b-1003")
        response = meeting.meeting_details("bob", booked.meeting_id, 5.0)
        assert not response.allowed

    def test_participant_filtering_by_permission(self, tippers):
        meeting = SmartMeeting(tippers)
        booked = meeting.book("mary", ["bob"], 0.0, 10.0, 0.0, space_id="b-1003")
        # Mary allows detail sharing; Bob denies it.
        tippers.submit_permission(catalog.preference_4_meeting_details("mary"))
        tippers.submit_permission(
            ServicePermission(
                user_id="bob",
                service_id="smart-meeting",
                category=DataCategory.MEETING_DETAILS,
                granularity=GranularityLevel.PRECISE,
                granted=False,
            )
        )
        response = meeting.meeting_details("mary", booked.meeting_id, 5.0)
        assert response.allowed
        assert response.value["participants"] == ["mary"]


class TestFoodDelivery:
    def test_subscription_lifecycle(self, tippers):
        food = FoodDeliveryService(tippers)
        food.subscribe("mary")
        food.subscribe("mary")
        assert food.subscribers == ("mary",)
        food.unsubscribe("mary")
        assert food.subscribers == ()

    def test_unknown_subscriber_rejected(self, tippers):
        with pytest.raises(ServiceError):
            FoodDeliveryService(tippers).subscribe("ghost")

    def test_delivery_requires_lunch_window(self, tippers, world):
        food = FoodDeliveryService(tippers)
        food.subscribe("mary")
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        evening = 20 * 3600.0
        assert not food.deliver("mary", evening).delivered

    def test_delivery_at_lunch(self, tippers, world):
        food = FoodDeliveryService(tippers)
        food.subscribe("mary")
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        attempt = food.deliver("mary", now)
        assert attempt.delivered
        assert attempt.space_id == "b-1001"

    def test_third_party_optout_blocks(self, tippers, world):
        food = FoodDeliveryService(tippers)
        food.subscribe("mary")
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.submit_permission(
            ServicePermission(
                user_id="mary",
                service_id=food.service_id,
                category=DataCategory.LOCATION,
                granularity=GranularityLevel.PRECISE,
                granted=False,
            )
        )
        attempt = food.deliver("mary", now)
        assert not attempt.delivered
        assert "denied" in attempt.reason

    def test_lunch_run_covers_all_subscribers(self, tippers, world):
        food = FoodDeliveryService(tippers)
        food.subscribe("mary")
        food.subscribe("bob")
        now = see(tippers, world, "mary", "aa:bb:cc:00:00:01", "b-1001")
        attempts = food.lunch_run(now)
        assert {a.user_id for a in attempts} == {"mary", "bob"}
