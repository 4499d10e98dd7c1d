"""The Smart Concierge service.

"Smart Concierge service, which helps users locate rooms, inhabitants
and events in the building" (Section III-B), and per Figure 3 gives
directions using WiFi and beacon location data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.language.builder import ServicePolicyBuilder
from repro.core.language.vocabulary import Purpose
from repro.errors import ServiceError
from repro.services.base import BuildingService
from repro.spatial.model import Space, SpaceType
from repro.tippers.request_manager import QueryResponse


@dataclass(frozen=True)
class Directions:
    """A walking route between two spaces."""

    from_space_id: str
    to_space_id: str
    waypoints: Tuple[str, ...]
    distance_m: float

    @property
    def steps(self) -> int:
        return len(self.waypoints)


class SmartConcierge(BuildingService):
    """Locates rooms, people, and amenities; gives directions."""

    def __init__(self, tippers, service_id: str = "concierge") -> None:
        super().__init__(service_id, tippers)

    def _describe(self, builder: ServicePolicyBuilder) -> None:
        builder.observes(
            "wifi_access_point",
            "Whenever one of your devices connects to the DBH WiFi its MAC "
            "address is stored",
            inferred=["location"],
        ).observes(
            "bluetooth_beacon",
            "When you have Concierge installed and your bluetooth senses a "
            "beacon, the room you are in is stored",
            inferred=["location"],
        ).purpose(
            "providing_service",
            "Your location data is used to give you directions around the "
            "Bren Hall.",
        )

    # ------------------------------------------------------------------
    # Room lookup (no personal data involved)
    # ------------------------------------------------------------------
    def find_room(self, name_fragment: str) -> List[Space]:
        """Rooms whose name contains ``name_fragment`` (case-insensitive)."""
        fragment = name_fragment.lower()
        return [
            space
            for space in self.tippers.spatial
            if space.space_type is SpaceType.ROOM and fragment in space.name.lower()
        ]

    def rooms_with(self, attribute: str) -> List[Space]:
        """Rooms tagged with ``attribute`` (e.g. ``"coffee_machine"``)."""
        return [
            space
            for space in self.tippers.spatial
            if space.space_type is SpaceType.ROOM
            and space.attributes.get(attribute) == "yes"
        ]

    # ------------------------------------------------------------------
    # People lookup (policy-checked)
    # ------------------------------------------------------------------
    def find_person(self, subject_id: str, now: float) -> QueryResponse:
        """Where is ``subject_id``?  Subject preferences apply."""
        return self.tippers.request_manager.locate_user(
            self.service_id,
            self.requester_kind,
            subject_id,
            now,
            purpose=Purpose.PROVIDING_SERVICE,
        )

    # ------------------------------------------------------------------
    # Directions
    # ------------------------------------------------------------------
    def _center_distance(self, a_id: str, b_id: str) -> float:
        spatial = self.tippers.spatial
        a, b = spatial.get(a_id), spatial.get(b_id)
        if a.footprint is None or b.footprint is None:
            raise ServiceError("spaces lack footprints for routing")
        return a.footprint.center.distance_to(b.footprint.center)

    def directions(self, from_space_id: str, to_space_id: str) -> Directions:
        """A corridor-based route between two spaces on known floors."""
        spatial = self.tippers.spatial
        if from_space_id not in spatial or to_space_id not in spatial:
            raise ServiceError("unknown space in directions request")
        waypoints: List[str] = [from_space_id]
        from_floor = spatial.ancestor_at_level(from_space_id, SpaceType.FLOOR)
        to_floor = spatial.ancestor_at_level(to_space_id, SpaceType.FLOOR)
        distance = 0.0
        if from_floor is not None and to_floor is not None:
            for floor in {from_floor.space_id, to_floor.space_id}:
                corridors = [
                    s
                    for s in spatial.children(floor)
                    if s.space_type is SpaceType.CORRIDOR
                ]
                waypoints.extend(c.space_id for c in corridors)
            if from_floor.space_id != to_floor.space_id:
                # Inter-floor travel: charge a fixed stairwell cost.
                distance += 15.0
        waypoints.append(to_space_id)
        try:
            distance += self._center_distance(from_space_id, to_space_id)
        except ServiceError:
            distance += 0.0
        return Directions(
            from_space_id=from_space_id,
            to_space_id=to_space_id,
            waypoints=tuple(waypoints),
            distance_m=round(distance, 2),
        )

    def directions_to_nearest(
        self, user_id: str, attribute: str, now: float
    ) -> Optional[Directions]:
        """Route the user to the nearest room tagged ``attribute``.

        Needs the user's location; returns ``None`` when the user has
        opted out of location sharing with the Concierge (the request is
        denied) or is not currently locatable.
        """
        response = self.find_person(user_id, now)
        if not response.allowed or response.value is None:
            return None
        origin = response.value.space_id
        if origin == "unknown" or origin not in self.tippers.spatial:
            return None
        candidates = self.rooms_with(attribute)
        if not candidates:
            return None
        nearest = min(
            candidates,
            key=lambda space: self._safe_distance(origin, space.space_id),
        )
        return self.directions(origin, nearest.space_id)

    def _safe_distance(self, a_id: str, b_id: str) -> float:
        try:
            return self._center_distance(a_id, b_id)
        except ServiceError:
            return float("inf")
