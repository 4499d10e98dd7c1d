"""The paper's example policies and preferences, as constructors.

Section III lists four building policies and four user preferences.
They are used throughout the tests, examples, and benchmarks, so they
live here as a small catalog.  Each constructor takes the ids it needs
(spaces, users, services) so the catalog works against any building.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.language.duration import Duration
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.building import ActuationRule, BuildingPolicy
from repro.core.policy.conditions import TemporalCondition
from repro.core.policy.preference import ServicePermission, UserPreference


def policy_1_comfort(space_ids: Sequence[str], setpoint_f: float = 70.0) -> BuildingPolicy:
    """Policy 1: thermostat of occupied rooms set to ``setpoint_f``.

    "A facility manager sets the thermostat temperature of occupied
    rooms to 70F to match the average comfort level of users."  The
    data rule authorizes occupancy sensing for the comfort purpose; the
    actuation rules adjust HVAC setpoint and fan speed when the room is
    occupied.
    """
    return BuildingPolicy(
        policy_id="policy-1-comfort",
        name="Comfort temperature in occupied rooms",
        description=(
            "Set the thermostat temperature of occupied rooms to %.0fF to "
            "match the average comfort level of users." % setpoint_f
        ),
        effect=Effect.ALLOW,
        categories=(DataCategory.OCCUPANCY, DataCategory.TEMPERATURE),
        sensor_types=("motion_sensor", "temperature_sensor"),
        space_ids=tuple(space_ids),
        phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE, DecisionPhase.PROCESSING),
        purposes=(Purpose.COMFORT,),
        granularity=GranularityLevel.PRECISE,
        retention=Duration.parse("P7D"),
        actuations=(
            ActuationRule(
                sensor_type="hvac_unit",
                settings={"setpoint_f": setpoint_f, "fan_speed": "auto"},
                trigger="occupied",
            ),
        ),
    )


def policy_2_emergency_location(building_id: str) -> BuildingPolicy:
    """Policy 2: location stored for emergency response (mandatory).

    "The building management system stores your location to locate you
    in case of emergency situations."  Marked mandatory: a user opt-out
    conflicts with it, which is the paper's canonical conflict example.
    """
    return BuildingPolicy(
        policy_id="policy-2-emergency",
        name="Location tracking in DBH",
        description=(
            "The building management system stores your location to locate "
            "you in case of emergency situations."
        ),
        effect=Effect.ALLOW,
        categories=(DataCategory.LOCATION, DataCategory.PRESENCE),
        sensor_types=("wifi_access_point",),
        space_ids=(building_id,),
        phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
        purposes=(Purpose.EMERGENCY_RESPONSE,),
        granularity=GranularityLevel.PRECISE,
        retention=Duration.parse("P6M"),
        mandatory=True,
    )


def policy_3_meeting_room_access(room_ids: Sequence[str]) -> BuildingPolicy:
    """Policy 3: ID card or fingerprint needed for meeting rooms.

    "A building administrator defines that either an ID card or
    fingerprint verification is needed to access meeting rooms."
    """
    return BuildingPolicy(
        policy_id="policy-3-access",
        name="Meeting room access control",
        description=(
            "Either an ID card or fingerprint verification is needed to "
            "access meeting rooms."
        ),
        effect=Effect.ALLOW,
        categories=(DataCategory.IDENTITY,),
        sensor_types=("id_card_reader",),
        space_ids=tuple(room_ids),
        phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
        purposes=(Purpose.ACCESS_CONTROL,),
        retention=Duration.parse("P1Y"),
        actuations=(
            ActuationRule(
                sensor_type="id_card_reader",
                settings={"mode": "card_or_fingerprint"},
            ),
        ),
    )


def policy_4_event_disclosure(event_space_id: str) -> BuildingPolicy:
    """Policy 4: event details disclosed to nearby registered users.

    "An event coordinator requires that details regarding an event are
    disclosed to registered participants only when they are nearby."
    The spatial selector restricts sharing to requests located at the
    event space; ``RequestManager.event_details`` checks the roster
    (kept by :mod:`repro.tippers.policy_manager`) and nearness first.
    """
    return BuildingPolicy(
        policy_id="policy-4-event",
        name="Event detail disclosure",
        description=(
            "Details regarding an event are disclosed to registered "
            "participants only when they are nearby."
        ),
        effect=Effect.ALLOW,
        categories=(DataCategory.MEETING_DETAILS,),
        space_ids=(event_space_id,),
        phases=(DecisionPhase.SHARING,),
        purposes=(Purpose.PROVIDING_SERVICE,),
        granularity=GranularityLevel.PRECISE,
    )


def policy_service_sharing(
    building_id: str,
    categories: Sequence[DataCategory] = (
        DataCategory.LOCATION,
        DataCategory.PRESENCE,
        DataCategory.OCCUPANCY,
        DataCategory.MEETING_DETAILS,
    ),
    granularity: GranularityLevel = GranularityLevel.PRECISE,
) -> BuildingPolicy:
    """A building policy authorizing data sharing with services.

    Not in the paper's numbered list, but implied by Section III-B's
    service scenarios: without it TIPPERS is default-deny and no
    service query would ever succeed.  It is deliberately
    non-mandatory, so user preferences and service permissions can
    restrict it per user.
    """
    return BuildingPolicy(
        policy_id="policy-service-sharing",
        name="Service data sharing",
        description=(
            "Building and third-party services may receive inhabitant data "
            "for the purpose of providing their service, subject to each "
            "inhabitant's preferences."
        ),
        effect=Effect.ALLOW,
        categories=tuple(categories),
        # No spatial selector: the rule covers the whole deployment,
        # including requests whose subject currently has no known
        # location (a spatial selector would silently exclude them).
        phases=(DecisionPhase.PROCESSING, DecisionPhase.SHARING),
        purposes=(Purpose.PROVIDING_SERVICE, Purpose.ENERGY_MANAGEMENT),
        granularity=granularity,
    )


def preference_1_office_after_hours(
    user_id: str,
    office_id: str,
    after_hours: Tuple[float, float] = (18.0, 8.0),
) -> UserPreference:
    """Preference 1: hide office occupancy after-hours.

    "Do not share the occupancy status of my office in after-hours."
    """
    return UserPreference(
        preference_id="pref-1-%s-office" % user_id,
        user_id=user_id,
        description="Do not share the occupancy status of my office in after-hours.",
        effect=Effect.DENY,
        categories=(DataCategory.OCCUPANCY, DataCategory.PRESENCE),
        phases=(DecisionPhase.SHARING,),
        space_ids=(office_id,),
        condition=TemporalCondition(start_hour=after_hours[0], end_hour=after_hours[1]),
    )


def preference_2_no_location(user_id: str) -> UserPreference:
    """Preference 2: "Do not share my location with anyone."

    Conflicts with Policy 2, which is the worked conflict example of
    Section III-B.
    """
    return UserPreference(
        preference_id="pref-2-%s-location" % user_id,
        user_id=user_id,
        description="Do not share my location with anyone.",
        effect=Effect.DENY,
        categories=(DataCategory.LOCATION,),
        phases=(
            DecisionPhase.CAPTURE,
            DecisionPhase.STORAGE,
            DecisionPhase.PROCESSING,
            DecisionPhase.SHARING,
        ),
    )


def preference_3_concierge_location(
    user_id: str, service_id: str = "concierge"
) -> ServicePermission:
    """Preference 3: Concierge may use fine-grained location.

    "Allow Concierge access to my fine grained location for directions."
    """
    return ServicePermission(
        user_id=user_id,
        service_id=service_id,
        category=DataCategory.LOCATION,
        granularity=GranularityLevel.PRECISE,
        purposes=(Purpose.PROVIDING_SERVICE,),
        granted=True,
    )


def preference_4_meeting_details(
    user_id: str, service_id: str = "smart-meeting"
) -> ServicePermission:
    """Preference 4: Smart Meeting may access meeting details.

    "Allow Smart Meeting access to the details of the meeting and its
    participants."
    """
    return ServicePermission(
        user_id=user_id,
        service_id=service_id,
        category=DataCategory.MEETING_DETAILS,
        granularity=GranularityLevel.PRECISE,
        purposes=(Purpose.PROVIDING_SERVICE,),
        granted=True,
    )
