"""The simulated world: where everyone is, and room physics.

:class:`BuildingWorld` implements the
:class:`~repro.sensors.environment.EnvironmentView` that sensor drivers
sample.  ``step(now)`` moves each inhabitant according to their
schedule (office work, lunch trips, occasional corridor wandering) and
relaxes room temperatures toward their HVAC setpoints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.core.language.duration import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.errors import ReproError
from repro.sensors.environment import EnvironmentView, PresentDevice
from repro.simulation.inhabitants import Inhabitant
from repro.spatial.model import SpaceType, SpatialModel


class BuildingWorld(EnvironmentView):
    """Ground-truth world state the sensors observe."""

    OUTSIDE_TEMP_F = 62.0
    BASE_LOAD_W = 40.0
    PER_PERSON_LOAD_W = 120.0

    def __init__(
        self,
        spatial: SpatialModel,
        inhabitants: List[Inhabitant],
        seed: int = 0,
    ) -> None:
        self._spatial = spatial
        self._inhabitants = {p.user_id: p for p in inhabitants}
        self._rng = random.Random(seed)
        self._locations: Dict[str, Optional[str]] = {
            p.user_id: None for p in inhabitants
        }
        self._previous_locations: Dict[str, Optional[str]] = dict(self._locations)
        #: space -> the sorted ids of who is there; rebuilt on the first
        #: read after ``_locations`` changes (``step``, ``teleport``,
        #: ``add_visitor`` and ``remove_visitor`` reset it).
        self._occupants: Optional[Dict[Optional[str], List[str]]] = None
        self._temperatures: Dict[str, float] = {
            s.space_id: self.OUTSIDE_TEMP_F + 6.0
            for s in spatial.spaces_of_type(SpaceType.ROOM)
        }
        self._hvac_setpoints: Dict[str, float] = {}
        self._lunch_room = self._pick_lunch_room()
        self._pending_credentials: Dict[str, str] = {}
        #: Visitors from other buildings: present in the ground truth
        #: (their devices radiate like anyone's) but never auto-placed
        #: by ``step`` -- their schedules and offices belong to their
        #: home building, so a campus controller teleports them.
        self._visitors: Set[str] = set()

    def _pick_lunch_room(self) -> str:
        rooms = sorted(
            s.space_id
            for s in self._spatial.spaces_of_type(SpaceType.ROOM)
            if s.attributes.get("coffee_machine") == "yes"
        )
        if rooms:
            return rooms[0]
        all_rooms = sorted(s.space_id for s in self._spatial.spaces_of_type(SpaceType.ROOM))
        if not all_rooms:
            raise ReproError("world needs at least one room")
        return all_rooms[0]

    # ------------------------------------------------------------------
    # Time stepping
    # ------------------------------------------------------------------
    def hour_of(self, now: float) -> float:
        return (now % SECONDS_PER_DAY) / SECONDS_PER_HOUR

    def step(self, now: float, dt_s: float = 60.0) -> None:
        """Advance the world to ``now``: move people, relax physics."""
        hour = self.hour_of(now)
        self._previous_locations = dict(self._locations)
        for inhabitant in self._inhabitants.values():
            if inhabitant.user_id in self._visitors:
                continue  # placed by the campus controller, not the schedule
            self._locations[inhabitant.user_id] = self._place(inhabitant, hour)
        self._occupants = None
        self._relax_temperatures(dt_s)

    def _place(self, inhabitant: Inhabitant, hour: float) -> Optional[str]:
        schedule = inhabitant.schedule
        if not schedule.in_building(hour):
            return None
        if schedule.at_lunch(hour):
            return self._lunch_room
        office = inhabitant.profile.office_id
        if office is None:
            # Undergrads drift between rooms and corridors.
            spaces = sorted(
                s.space_id
                for s in self._spatial.spaces_of_type(SpaceType.ROOM)
            )
            return self._rng.choice(spaces)
        # Occasionally wander to the corridor outside the office.
        if self._rng.random() < 0.05:
            floor = self._spatial.ancestor_at_level(office, SpaceType.FLOOR)
            if floor is not None:
                corridors = [
                    s.space_id
                    for s in self._spatial.children(floor.space_id)
                    if s.space_type is SpaceType.CORRIDOR
                ]
                if corridors:
                    return corridors[0]
        return office

    def _relax_temperatures(self, dt_s: float) -> None:
        """First-order relaxation toward setpoint (or outside temp)."""
        rate = min(1.0, dt_s / 1800.0)
        for space_id, temp in self._temperatures.items():
            target = self._hvac_setpoints.get(space_id, self.OUTSIDE_TEMP_F + 4.0)
            self._temperatures[space_id] = temp + (target - temp) * rate

    # ------------------------------------------------------------------
    # Control inputs
    # ------------------------------------------------------------------
    def set_hvac_setpoint(self, space_id: str, setpoint_f: float) -> None:
        self._hvac_setpoints[space_id] = setpoint_f

    def present_credential(self, space_id: str, user_id: str) -> None:
        """A user swipes their card at a reader this tick."""
        self._pending_credentials[space_id] = "cred:%s" % user_id

    def teleport(self, user_id: str, space_id: Optional[str]) -> None:
        """Force a person's location (used by scenario scripts)."""
        if user_id not in self._locations:
            raise ReproError("unknown inhabitant %r" % user_id)
        self._locations[user_id] = space_id
        self._occupants = None

    # ------------------------------------------------------------------
    # Cross-building visitors (federation roaming)
    # ------------------------------------------------------------------
    def add_visitor(self, inhabitant: Inhabitant) -> None:
        """Admit a visitor from another building (idempotent)."""
        if inhabitant.user_id in self._inhabitants:
            self._visitors.add(inhabitant.user_id)
            return
        self._inhabitants[inhabitant.user_id] = inhabitant
        self._locations[inhabitant.user_id] = None
        self._occupants = None
        self._visitors.add(inhabitant.user_id)

    def remove_visitor(self, user_id: str) -> None:
        """The visitor left the building; forget their ground truth."""
        if user_id not in self._visitors:
            return
        self._visitors.discard(user_id)
        self._inhabitants.pop(user_id, None)
        self._locations.pop(user_id, None)
        self._occupants = None
        # _previous_locations keeps its entry for one step, so motion
        # sensors see the departure like any other exit.

    # ------------------------------------------------------------------
    # Ground truth queries
    # ------------------------------------------------------------------
    def location_of(self, user_id: str) -> Optional[str]:
        return self._locations.get(user_id)

    def occupants_of(self, space_id: str) -> List[str]:
        return list(self._occupancy().get(space_id, ()))

    def _occupancy(self) -> Dict[Optional[str], List[str]]:
        if self._occupants is None:
            occupants: Dict[Optional[str], List[str]] = {}
            for user_id, space_id in self._locations.items():
                occupants.setdefault(space_id, []).append(user_id)
            for user_ids in occupants.values():
                user_ids.sort()
            self._occupants = occupants
        return self._occupants

    @property
    def lunch_room(self) -> str:
        return self._lunch_room

    # ------------------------------------------------------------------
    # EnvironmentView (what sensors see)
    # ------------------------------------------------------------------
    def devices_in(self, space_id: str) -> List[PresentDevice]:
        devices = []
        for user_id in self._occupancy().get(space_id, ()):
            profile = self._inhabitants[user_id].profile
            for mac in profile.device_macs:
                devices.append(
                    PresentDevice(
                        person_id=user_id, device_mac=mac, has_iota=profile.has_iota
                    )
                )
        return devices

    def temperature_of(self, space_id: str) -> float:
        return self._temperatures.get(space_id, self.OUTSIDE_TEMP_F)

    def power_draw_of(self, space_id: str) -> float:
        occupants = len(self._occupancy().get(space_id, ()))
        return self.BASE_LOAD_W + self.PER_PERSON_LOAD_W * occupants

    def motion_in(self, space_id: str) -> bool:
        if space_id in self._occupancy():
            return True
        # Motion also triggers briefly when someone just left: with the
        # space empty now, anyone who was in it has left.
        return space_id in self._previous_locations.values()

    def credential_presented(self, space_id: str) -> Optional[str]:
        return self._pending_credentials.pop(space_id, None)


@dataclass(frozen=True)
class RoamEvent:
    """One person crossing a building boundary this step."""

    user_id: str
    from_building: str
    to_building: str
    kind: str  # "roam" (left home) | "return" (came home)


class CampusWorld:
    """Ground truth for a campus: one BuildingWorld per building.

    Residents follow their home building's schedules; *roamers*
    additionally cross building boundaries under a seeded RNG, becoming
    visitors in the destination world (placed in its common room, where
    the sensors are) while their home world shows them absent.  The
    emitted :class:`RoamEvent` stream is what drives IoTA handoffs in
    the federation scenario -- the world decides *that* someone moved;
    the privacy machinery decides what happens next.
    """

    def __init__(
        self,
        worlds: Mapping[str, BuildingWorld],
        home_of: Mapping[str, str],
        inhabitants: Mapping[str, Inhabitant],
        roamers: Sequence[str],
        seed: int = 0,
        roam_rate: float = 0.25,
        return_rate: float = 0.35,
    ) -> None:
        if not worlds:
            raise ReproError("a campus needs at least one building world")
        for user_id, home in home_of.items():
            if home not in worlds:
                raise ReproError(
                    "inhabitant %r homes to unknown building %r" % (user_id, home)
                )
        for user_id in roamers:
            if user_id not in home_of or user_id not in inhabitants:
                raise ReproError("unknown roamer %r" % user_id)
        self._worlds = dict(worlds)
        self._home_of = dict(home_of)
        self._inhabitants = dict(inhabitants)
        self._roamers = tuple(sorted(set(roamers)))
        self._assignment: Dict[str, str] = dict(home_of)
        self._rng = random.Random(seed)
        self._roam_rate = roam_rate
        self._return_rate = return_rate

    @property
    def roamers(self) -> Sequence[str]:
        return self._roamers

    def world(self, building_id: str) -> BuildingWorld:
        try:
            return self._worlds[building_id]
        except KeyError:
            raise ReproError("unknown building %r" % building_id) from None

    def building_of(self, user_id: str) -> str:
        """The building ``user_id`` is currently assigned to."""
        try:
            return self._assignment[user_id]
        except KeyError:
            raise ReproError("unknown inhabitant %r" % user_id) from None

    def location_of(self, user_id: str) -> Optional[str]:
        """Ground-truth location in the user's current building."""
        return self.world(self.building_of(user_id)).location_of(user_id)

    def step(self, now: float, dt_s: float = 60.0) -> List[RoamEvent]:
        """Advance every building; decide and apply roaming moves.

        Roam decisions iterate the sorted roamer list against one
        seeded RNG, so two same-seed runs produce the same event
        stream.  A roamer leaves home only while their schedule has
        them in a building, and is forced home once it no longer does
        (nobody sleeps in a foreign lunch room).
        """
        events: List[RoamEvent] = []
        for user_id in self._roamers:
            home = self._home_of[user_id]
            current = self._assignment[user_id]
            schedule = self._inhabitants[user_id].schedule
            hour = self._worlds[home].hour_of(now)
            if current == home:
                if schedule.in_building(hour) and self._rng.random() < self._roam_rate:
                    choices = sorted(b for b in self._worlds if b != home)
                    if not choices:
                        continue
                    destination = self._rng.choice(choices)
                    self._assignment[user_id] = destination
                    self._worlds[destination].add_visitor(
                        self._inhabitants[user_id]
                    )
                    events.append(
                        RoamEvent(
                            user_id=user_id,
                            from_building=home,
                            to_building=destination,
                            kind="roam",
                        )
                    )
            else:
                must_return = not schedule.in_building(hour)
                if must_return or self._rng.random() < self._return_rate:
                    self._worlds[current].remove_visitor(user_id)
                    self._assignment[user_id] = home
                    events.append(
                        RoamEvent(
                            user_id=user_id,
                            from_building=current,
                            to_building=home,
                            kind="return",
                        )
                    )
        for building_id in sorted(self._worlds):
            self._worlds[building_id].step(now, dt_s)
        # Enforce the assignment: someone visiting building B is absent
        # from their home world and present in B's common room.
        for user_id, building_id in sorted(self._assignment.items()):
            home = self._home_of[user_id]
            if building_id == home:
                continue
            self._worlds[home].teleport(user_id, None)
            visited = self._worlds[building_id]
            visited.teleport(user_id, visited.lunch_room)
        return events
