"""Automated IRR provisioning from Manufacturer Usage Descriptions.

Section V-B: "This requires a unified way to discover IoT technologies
through IRRs and we envision that the setup of IRRs can be automated
(e.g. by leveraging Manufacturer Usage Descriptions)."

A :class:`MUDProfile` is our privacy-oriented analogue of an IETF MUD
file: the *manufacturer's* machine-readable statement of what a device
type observes, what can be inferred from it, and which settings it
supports.  :func:`auto_provision` walks a building's deployed sensors,
looks up each type's profile, merges in the building's own policies
(owner, retention), and publishes one advertisement per sensor type --
turning IRR setup from hand-authoring into a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.language.document import (
    ObservationDescription,
    ResourceDescription,
    ResourcePolicyDocument,
    SettingsDocument,
)
from repro.core.language.duration import Duration
from repro.core.language.vocabulary import (
    PURPOSE_TAXONOMY,
    DataCategory,
    GranularityLevel,
    Purpose,
)
from repro.core.policy.settings import SettingChoice, SettingGroup, SettingsSpace
from repro.irr.registry import Advertisement, IoTResourceRegistry
from repro.tippers.bms import TIPPERS


@dataclass(frozen=True)
class MUDProfile:
    """A manufacturer's privacy description of one device type."""

    sensor_type: str
    manufacturer: str
    model: str
    documentation_url: str
    observations: Tuple[ObservationDescription, ...]
    default_purposes: Tuple[Purpose, ...]
    default_retention: Optional[Duration] = None
    offers_granularity_choices: Tuple[GranularityLevel, ...] = ()
    """Granularity levels the device can be configured to; non-empty
    profiles yield a Figure-4-style settings group."""

    primary_category: DataCategory = DataCategory.ACTIVITY

    def settings_space(self) -> Optional[SettingsSpace]:
        """The settings group this device supports, if any."""
        if not self.offers_granularity_choices:
            return None
        choices = []
        for level in self.offers_granularity_choices:
            choices.append(
                SettingChoice(
                    key=level.value,
                    description="%s sensing at %s granularity"
                    % (self.primary_category.value, level.value),
                    category=self.primary_category,
                    granularity=level,
                    actuation="%s=%s" % (self.sensor_type, level.value),
                )
            )
        default = choices[0].key
        return SettingsSpace(
            [
                SettingGroup(
                    group_id=self.sensor_type,
                    category=self.primary_category,
                    choices=tuple(choices),
                    default_key=default,
                )
            ]
        )


def _purpose_map(purposes: Tuple[Purpose, ...]) -> Dict[str, str]:
    return {p.value: PURPOSE_TAXONOMY[p].description for p in purposes}


#: Built-in profiles for the DBH device fleet.
BUILTIN_PROFILES: Dict[str, MUDProfile] = {
    profile.sensor_type: profile
    for profile in (
        MUDProfile(
            sensor_type="wifi_access_point",
            manufacturer="AcmeNet",
            model="AP-9000",
            documentation_url="https://acmenet.example/mud/ap-9000",
            observations=(
                ObservationDescription(
                    name="location",
                    description="MAC addresses of associating devices are logged",
                    inferred=("location", "presence", "identity"),
                ),
            ),
            default_purposes=(Purpose.EMERGENCY_RESPONSE, Purpose.LOGGING),
            default_retention=Duration.parse("P6M"),
            offers_granularity_choices=(
                GranularityLevel.PRECISE,
                GranularityLevel.COARSE,
                GranularityLevel.NONE,
            ),
            primary_category=DataCategory.LOCATION,
        ),
        MUDProfile(
            sensor_type="bluetooth_beacon",
            manufacturer="BeaconWorks",
            model="BW-2",
            documentation_url="https://beaconworks.example/mud/bw-2",
            observations=(
                ObservationDescription(
                    name="location",
                    description="Phones sensing the beacon report their room",
                    inferred=("location", "presence"),
                ),
            ),
            default_purposes=(Purpose.PROVIDING_SERVICE,),
            default_retention=Duration.parse("P30D"),
            offers_granularity_choices=(
                GranularityLevel.PRECISE,
                GranularityLevel.NONE,
            ),
            primary_category=DataCategory.LOCATION,
        ),
        MUDProfile(
            sensor_type="camera",
            manufacturer="SecureSight",
            model="SS-4K",
            documentation_url="https://securesight.example/mud/ss-4k",
            observations=(
                ObservationDescription(
                    name="presence",
                    description="Video frames of corridors and doors",
                    inferred=("presence", "identity", "activity"),
                ),
            ),
            default_purposes=(Purpose.SECURITY,),
            default_retention=Duration.parse("P14D"),
            primary_category=DataCategory.PRESENCE,
        ),
        MUDProfile(
            sensor_type="power_meter",
            manufacturer="WattWatch",
            model="WW-1",
            documentation_url="https://wattwatch.example/mud/ww-1",
            observations=(
                ObservationDescription(
                    name="energy_use",
                    description="Per-outlet power draw",
                    inferred=("energy_use", "occupancy", "activity"),
                ),
            ),
            default_purposes=(Purpose.ENERGY_MANAGEMENT,),
            default_retention=Duration.parse("P1Y"),
            primary_category=DataCategory.ENERGY_USE,
        ),
        MUDProfile(
            sensor_type="temperature_sensor",
            manufacturer="ThermoCo",
            model="T-100",
            documentation_url="https://thermoco.example/mud/t-100",
            observations=(
                ObservationDescription(
                    name="temperature",
                    description="Ambient room temperature",
                ),
            ),
            default_purposes=(Purpose.COMFORT,),
            primary_category=DataCategory.TEMPERATURE,
        ),
        MUDProfile(
            sensor_type="motion_sensor",
            manufacturer="ThermoCo",
            model="M-50",
            documentation_url="https://thermoco.example/mud/m-50",
            observations=(
                ObservationDescription(
                    name="occupancy",
                    description="Whether the room is occupied by anyone",
                    inferred=("occupancy", "presence"),
                ),
            ),
            default_purposes=(Purpose.COMFORT,),
            default_retention=Duration.parse("P7D"),
            primary_category=DataCategory.OCCUPANCY,
        ),
        MUDProfile(
            sensor_type="hvac_unit",
            manufacturer="ThermoCo",
            model="H-9",
            documentation_url="https://thermoco.example/mud/h-9",
            observations=(
                ObservationDescription(
                    name="temperature", description="HVAC setpoint and fan state"
                ),
            ),
            default_purposes=(Purpose.COMFORT,),
            primary_category=DataCategory.TEMPERATURE,
        ),
        MUDProfile(
            sensor_type="id_card_reader",
            manufacturer="GateKeep",
            model="GK-3",
            documentation_url="https://gatekeep.example/mud/gk-3",
            observations=(
                ObservationDescription(
                    name="identity",
                    description="Credential presentations at guarded doors",
                    inferred=("identity", "presence"),
                ),
            ),
            default_purposes=(Purpose.ACCESS_CONTROL,),
            default_retention=Duration.parse("P1Y"),
            primary_category=DataCategory.IDENTITY,
        ),
    )
}


def advertisement_document(
    profile: MUDProfile,
    building_name: str,
    owner_name: str,
    owner_more_info: str = "",
    retention_override: Optional[Duration] = None,
) -> ResourcePolicyDocument:
    """A Figure-2-shaped document generated from a MUD profile."""
    return ResourcePolicyDocument(
        [
            ResourceDescription(
                name="%s %s (%s)" % (profile.manufacturer, profile.model, profile.sensor_type),
                resource_id="mud:%s" % profile.sensor_type,
                spatial_name=building_name,
                spatial_type="Building",
                owner_name=owner_name,
                owner_more_info=owner_more_info or profile.documentation_url,
                sensor_type=profile.sensor_type,
                sensor_description="auto-provisioned from the manufacturer's usage description",
                purposes=_purpose_map(profile.default_purposes),
                observations=profile.observations,
                retention=retention_override or profile.default_retention,
            )
        ]
    )


def auto_provision(
    registry: IoTResourceRegistry,
    tippers: TIPPERS,
    profiles: Optional[Dict[str, MUDProfile]] = None,
) -> List[Advertisement]:
    """Publish one advertisement per deployed sensor type.

    Looks up each deployed type in ``profiles`` (default: the built-in
    library), applies the building's retention schedule where it is
    stricter than the manufacturer default, and attaches the settings
    document for devices that offer granularity choices.  Types without
    a profile are skipped -- the admin must author those by hand, which
    is exactly the fallback the paper describes.
    """
    catalog = profiles if profiles is not None else BUILTIN_PROFILES
    building = tippers.spatial.get(tippers.building_id)
    retention_schedule = tippers.policy_manager.retention_by_sensor_type()
    published: List[Advertisement] = []
    deployed_types = sorted(
        {sensor.sensor_type for sensor in tippers.sensor_manager.sensors()}
    )
    for sensor_type in deployed_types:
        profile = catalog.get(sensor_type)
        if profile is None:
            continue
        override: Optional[Duration] = None
        building_retention = retention_schedule.get(sensor_type)
        if building_retention is not None:
            manufacturer_seconds = (
                profile.default_retention.total_seconds()
                if profile.default_retention is not None
                else None
            )
            if manufacturer_seconds is None or building_retention < manufacturer_seconds:
                override = Duration.from_seconds(building_retention)
        document = advertisement_document(
            profile,
            building_name=building.name,
            owner_name=tippers.policy_manager.owner_name,
            owner_more_info=tippers.policy_manager.owner_more_info,
            retention_override=override,
        )
        space = profile.settings_space()
        settings_doc: Optional[SettingsDocument] = (
            space.to_document() if space is not None else None
        )
        published.append(
            registry.publish_resource(
                "mud:%s" % sensor_type,
                tippers.building_id,
                document,
                settings=settings_doc,
            )
        )
    return published
