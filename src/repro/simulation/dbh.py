"""The synthetic Donald Bren Hall: spaces and sensor fleet.

The inventory follows Section II: a 6-story building with 40
surveillance cameras (corridors and doors), 60 WiFi access points, 200
Bluetooth beacons, and 100 power-outlet meters -- plus the
motion/temperature/HVAC loop per room that Policy 1 needs and ID card
readers on meeting rooms for Policy 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.reasoner.resolution import ResolutionStrategy
from repro.spatial.model import SpaceType, SpatialModel, build_simple_building
from repro.tippers.bms import TIPPERS

if TYPE_CHECKING:
    from repro.storage.durable import StorageEngine

BUILDING_ID = "dbh"
FLOORS = 6
ROOMS_PER_FLOOR = 20

CAMERA_COUNT = 40
WIFI_AP_COUNT = 60
BEACON_COUNT = 200
POWER_METER_COUNT = 100


@dataclass
class DeploymentSummary:
    """How many sensors of each type were deployed."""

    by_type: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.by_type.values())


def build_dbh_spatial() -> SpatialModel:
    """The DBH spatial model: 6 floors x 20 rooms plus corridors.

    Every fourth room is tagged as a meeting room; one room per floor
    hosts a coffee machine (the Concierge example's amenity).
    """
    model = build_simple_building(
        BUILDING_ID, floors=FLOORS, rooms_per_floor=ROOMS_PER_FLOOR,
        floor_width=120.0, floor_depth=40.0,
    )
    rooms = sorted(
        model.spaces_of_type(SpaceType.ROOM), key=lambda s: s.space_id
    )
    for index, room in enumerate(rooms):
        if index % 4 == 3:
            room.attributes["meeting_room"] = "yes"
        if index % ROOMS_PER_FLOOR == 5:
            room.attributes["coffee_machine"] = "yes"
    model.validate()
    return model


def deploy_dbh_sensors(tippers: TIPPERS) -> DeploymentSummary:
    """Deploy the Section-II inventory into ``tippers``.

    Sensors are spread round-robin across their natural host spaces:
    cameras over corridors, APs and meters over rooms, beacons over
    rooms and corridors, the HVAC loop in every room, and card readers
    on meeting rooms.
    """
    spatial = tippers.spatial
    corridors = sorted(
        (s.space_id for s in spatial.spaces_of_type(SpaceType.CORRIDOR))
    )
    rooms = sorted((s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM)))
    counts: Dict[str, int] = {}

    def deploy(sensor_type: str, count: int, hosts: List[str], prefix: str) -> None:
        for index in range(count):
            space_id = hosts[index % len(hosts)]
            tippers.deploy_sensor(
                sensor_type, "%s-%03d" % (prefix, index + 1), space_id
            )
        counts[sensor_type] = counts.get(sensor_type, 0) + count

    deploy("camera", CAMERA_COUNT, corridors, "cam")
    deploy("wifi_access_point", WIFI_AP_COUNT, rooms, "ap")
    deploy("bluetooth_beacon", BEACON_COUNT, rooms + corridors, "beacon")
    deploy("power_meter", POWER_METER_COUNT, rooms, "meter")

    # The comfort loop of Policy 1: motion + temperature + HVAC per room.
    for sensor_type, prefix in (
        ("motion_sensor", "motion"),
        ("temperature_sensor", "temp"),
        ("hvac_unit", "hvac"),
    ):
        for index, space_id in enumerate(rooms):
            tippers.deploy_sensor(
                sensor_type, "%s-%03d" % (prefix, index + 1), space_id
            )
        counts[sensor_type] = len(rooms)

    meeting_rooms = [
        s.space_id
        for s in spatial.spaces_of_type(SpaceType.ROOM)
        if s.attributes.get("meeting_room") == "yes"
    ]
    for index, space_id in enumerate(sorted(meeting_rooms)):
        tippers.deploy_sensor(
            "id_card_reader", "reader-%03d" % (index + 1), space_id
        )
    counts["id_card_reader"] = len(meeting_rooms)

    return DeploymentSummary(by_type=counts)


def make_dbh_tippers(
    strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
    enforce_capture: bool = True,
    deploy_sensors: bool = True,
    compile_decisions: bool = True,
    storage: Optional["StorageEngine"] = None,
) -> TIPPERS:
    """A ready DBH TIPPERS instance (no policies defined yet)."""
    spatial = build_dbh_spatial()
    tippers = TIPPERS(
        spatial,
        BUILDING_ID,
        strategy=strategy,
        owner_name="UCI",
        owner_more_info="https://www.ics.uci.edu/about/bren_hall",
        enforce_capture=enforce_capture,
        compile_decisions=compile_decisions,
        storage=storage,
    )
    if deploy_sensors:
        deploy_dbh_sensors(tippers)
    return tippers
