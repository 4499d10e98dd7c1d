"""Smart Concierge, Smart Meeting, and a third-party food service.

Demonstrates Section III-B's service scenarios with app-style service
permissions (Preferences 3 and 4):

- Alice grants the Concierge fine-grained location and gets walking
  directions to the nearest coffee machine.
- Bob denies the third-party food-delivery service his location; his
  lunch order cannot be delivered, while Alice's arrives.
- A meeting's participant list only shows people who allowed the Smart
  Meeting service to disclose their membership.

Run:  python examples/smart_services.py
"""

from repro.core.language.vocabulary import DataCategory, GranularityLevel
from repro.core.policy import catalog
from repro.core.policy.preference import ServicePermission
from repro.services.concierge import SmartConcierge
from repro.services.food_delivery import FoodDeliveryService
from repro.services.meeting import SmartMeeting
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld

NOON = 12 * 3600.0


def main() -> None:
    tippers = make_dbh_tippers()
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))
    inhabitants = generate_inhabitants(tippers.spatial, 12, seed=3)
    for person in inhabitants:
        tippers.add_user(person.profile)
    alice, bob = inhabitants[0].user_id, inhabitants[1].user_id
    world = BuildingWorld(tippers.spatial, inhabitants, seed=3)

    concierge = SmartConcierge(tippers)
    meeting_service = SmartMeeting(tippers)
    food = FoodDeliveryService(tippers)

    # Service permissions, mobile-app style.
    tippers.submit_permission(catalog.preference_3_concierge_location(alice))
    tippers.submit_permission(catalog.preference_4_meeting_details(alice))
    tippers.submit_permission(
        ServicePermission(
            user_id=bob,
            service_id=food.service_id,
            category=DataCategory.LOCATION,
            granularity=GranularityLevel.PRECISE,
            granted=False,  # Bob opts out of third-party location use
        )
    )
    tippers.submit_permission(
        ServicePermission(
            user_id=bob,
            service_id=meeting_service.service_id,
            category=DataCategory.MEETING_DETAILS,
            granularity=GranularityLevel.PRECISE,
            granted=False,  # Bob hides his meeting membership
        )
    )

    # A lunch-time capture sweep so the building knows where people are.
    for tick in range(5):
        now = NOON + tick * 60.0
        world.step(now)
        tippers.tick(now, world)
    now = NOON + 360.0

    print("== Smart Concierge ==")
    route = concierge.directions_to_nearest(alice, "coffee_machine", now)
    if route is None:
        print("Alice could not be routed (not locatable or opted out)")
    else:
        print(
            "Alice -> nearest coffee machine: %s -> %s (%.0fm, via %d waypoints)"
            % (route.from_space_id, route.to_space_id, route.distance_m, route.steps)
        )

    print()
    print("== Third-party food delivery ==")
    food.subscribe(alice)
    food.subscribe(bob)
    for attempt in food.lunch_run(now):
        print(
            "  %s: %s (%s)"
            % (attempt.user_id, "DELIVERED" if attempt.delivered else "FAILED", attempt.reason)
        )

    print()
    print("== Smart Meeting ==")
    meeting = meeting_service.book(
        organizer_id=alice,
        participant_ids=[bob],
        start=now + 3600.0,
        end=now + 7200.0,
        now=now,
        title="Project sync",
    )
    print("booked %s in %s" % (meeting.meeting_id, meeting.space_id))
    details = meeting_service.meeting_details(alice, meeting.meeting_id, now)
    print("participants visible to Alice:", details.value["participants"])
    print("(Bob withheld his membership; Alice allowed hers.)")


if __name__ == "__main__":
    main()
