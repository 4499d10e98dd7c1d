"""Typed policy documents mirroring the paper's Figures 2-4.

Each document class serializes to exactly the JSON structure the paper
shows and parses it back (round-trip safe), validating against the
schemas in :mod:`repro.core.language.schema` on both directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.language.duration import Duration
from repro.core.language.schema import (
    RESOURCE_POLICY_SCHEMA,
    SERVICE_POLICY_SCHEMA,
    SETTINGS_SCHEMA,
)
from repro.core.language.vocabulary import GranularityLevel, Purpose
from repro.errors import SchemaError


@dataclass(frozen=True)
class ObservationDescription:
    """One entry of an ``observations`` array (Figures 2 and 3)."""

    name: str
    description: str = ""
    granularity: Optional[GranularityLevel] = None
    inferred: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.description:
            data["description"] = self.description
        if self.granularity is not None:
            data["granularity"] = self.granularity.value
        if self.inferred:
            data["inferred"] = list(self.inferred)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObservationDescription":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            granularity=(
                GranularityLevel.from_string(data["granularity"])
                if "granularity" in data
                else None
            ),
            inferred=tuple(data.get("inferred", ())),
        )


@dataclass(frozen=True)
class ResourceDescription:
    """One resource entry of Figure 2's ``resources`` array."""

    name: str
    spatial_name: str
    spatial_type: str
    sensor_type: str
    purposes: Dict[str, str]
    observations: Tuple[ObservationDescription, ...]
    sensor_description: str = ""
    owner_name: str = ""
    owner_more_info: str = ""
    retention: Optional[Duration] = None
    retention_description: str = ""
    resource_id: str = ""
    settings_url: str = ""

    def __post_init__(self) -> None:
        if not self.observations:
            raise SchemaError("resource %r declares no observations" % self.name)
        if not self.purposes:
            raise SchemaError("resource %r declares no purposes" % self.name)

    def to_dict(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {"name": self.name}
        if self.resource_id:
            info["id"] = self.resource_id
        location: Dict[str, Any] = {
            "spatial": {"name": self.spatial_name, "type": self.spatial_type}
        }
        if self.owner_name:
            owner: Dict[str, Any] = {"name": self.owner_name}
            if self.owner_more_info:
                owner["human_description"] = {"more_info": self.owner_more_info}
            location["location_owner"] = owner
        sensor: Dict[str, Any] = {"type": self.sensor_type}
        if self.sensor_description:
            sensor["description"] = self.sensor_description
        data: Dict[str, Any] = {
            "info": info,
            "context": {"location": location},
            "sensor": sensor,
            "purpose": {
                key: {"description": description}
                for key, description in self.purposes.items()
            },
            "observations": [obs.to_dict() for obs in self.observations],
        }
        if self.retention is not None:
            retention: Dict[str, Any] = {"duration": self.retention.isoformat()}
            if self.retention_description:
                retention["description"] = self.retention_description
            data["retention"] = retention
        if self.settings_url:
            data["settings_url"] = self.settings_url
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResourceDescription":
        location = data["context"]["location"]
        owner = location.get("location_owner", {})
        purposes = {}
        for key, value in data["purpose"].items():
            if isinstance(value, str):
                purposes[key] = value
            else:
                purposes[key] = value.get("description", "")
        retention = data.get("retention")
        return cls(
            name=data["info"]["name"],
            resource_id=data["info"].get("id", ""),
            spatial_name=location["spatial"]["name"],
            spatial_type=location["spatial"]["type"],
            owner_name=owner.get("name", ""),
            owner_more_info=owner.get("human_description", {}).get("more_info", ""),
            sensor_type=data["sensor"]["type"],
            sensor_description=data["sensor"].get("description", ""),
            purposes=purposes,
            observations=tuple(
                ObservationDescription.from_dict(obs) for obs in data["observations"]
            ),
            retention=Duration.parse(retention["duration"]) if retention else None,
            retention_description=(retention or {}).get("description", ""),
            settings_url=data.get("settings_url", ""),
        )

    def named_purposes(self) -> List[Purpose]:
        """The taxonomy purposes this resource declares.

        Purpose keys outside the taxonomy (free-form purposes, e.g.
        ``"emergency response"`` spelled with a space as in Figure 2)
        are normalized by replacing spaces with underscores before
        lookup; truly unknown keys are skipped.
        """
        result = []
        for key in self.purposes:
            normalized = key.strip().lower().replace(" ", "_")
            try:
                result.append(Purpose(normalized))
            except ValueError:
                continue
        return result


class ResourcePolicyDocument:
    """Figure 2: the machine-readable policy an IRR advertises."""

    def __init__(self, resources: List[ResourceDescription]) -> None:
        if not resources:
            raise SchemaError("a resource policy document needs >= 1 resource")
        self.resources = list(resources)

    def to_dict(self) -> Dict[str, Any]:
        data = {"resources": [r.to_dict() for r in self.resources]}
        RESOURCE_POLICY_SCHEMA.validate(data)
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResourcePolicyDocument":
        RESOURCE_POLICY_SCHEMA.validate(data)
        return cls([ResourceDescription.from_dict(r) for r in data["resources"]])

    @classmethod
    def from_json(cls, text: str) -> "ResourcePolicyDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("invalid JSON: %s" % exc) from None
        return cls.from_dict(data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourcePolicyDocument):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return "ResourcePolicyDocument(%d resources)" % len(self.resources)


class ServicePolicyDocument:
    """Figure 3: what a service consumes and why."""

    def __init__(
        self,
        service_id: str,
        observations: List[ObservationDescription],
        purposes: Dict[str, str],
        developer_name: str = "",
        third_party: bool = False,
    ) -> None:
        if not service_id:
            raise SchemaError("service_id must be non-empty")
        if not observations:
            raise SchemaError("a service policy needs >= 1 observation")
        if not purposes:
            raise SchemaError("a service policy needs >= 1 purpose")
        self.service_id = service_id
        self.observations = list(observations)
        self.purposes = dict(purposes)
        self.developer_name = developer_name
        self.third_party = third_party

    def to_dict(self) -> Dict[str, Any]:
        purpose: Dict[str, Any] = {
            key: {"description": description}
            for key, description in self.purposes.items()
        }
        purpose["service_id"] = self.service_id
        data: Dict[str, Any] = {
            "observations": [obs.to_dict() for obs in self.observations],
            "purpose": purpose,
        }
        if self.developer_name or self.third_party:
            data["developer"] = {
                "name": self.developer_name,
                "third_party": self.third_party,
            }
        SERVICE_POLICY_SCHEMA.validate(data)
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServicePolicyDocument":
        SERVICE_POLICY_SCHEMA.validate(data)
        purposes = {}
        service_id = ""
        for key, value in data["purpose"].items():
            if key == "service_id":
                service_id = value
            elif isinstance(value, str):
                purposes[key] = value
            else:
                purposes[key] = value.get("description", "")
        developer = data.get("developer", {})
        return cls(
            service_id=service_id,
            observations=[
                ObservationDescription.from_dict(obs) for obs in data["observations"]
            ],
            purposes=purposes,
            developer_name=developer.get("name", ""),
            third_party=developer.get("third_party", False),
        )

    @classmethod
    def from_json(cls, text: str) -> "ServicePolicyDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("invalid JSON: %s" % exc) from None
        return cls.from_dict(data)

    def named_purposes(self) -> List[Purpose]:
        result = []
        for key in self.purposes:
            normalized = key.strip().lower().replace(" ", "_")
            try:
                result.append(Purpose(normalized))
            except ValueError:
                continue
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServicePolicyDocument):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return "ServicePolicyDocument(service_id=%r)" % self.service_id


@dataclass(frozen=True)
class SettingOptionDescription:
    """One option inside a ``select`` group (Figure 4).

    ``on`` is the opaque actuation string the paper shows (e.g.
    ``"wifi=opt-in"``); ``granularity`` is our machine-interpretable
    annotation letting the IoTA rank options without parsing ``on``.
    """

    description: str
    on: str
    granularity: Optional[GranularityLevel] = None
    key: str = ""
    """Stable identifier used when submitting a selection back to the
    building; empty for hand-authored documents (selection then falls
    back to positional option keys)."""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"description": self.description, "on": self.on}
        if self.granularity is not None:
            data["granularity"] = self.granularity.value
        if self.key:
            data["key"] = self.key
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SettingOptionDescription":
        return cls(
            description=data["description"],
            on=data["on"],
            granularity=(
                GranularityLevel.from_string(data["granularity"])
                if "granularity" in data
                else None
            ),
            key=data.get("key", ""),
        )


class SettingsDocument:
    """Figure 4: the privacy settings offered to users."""

    def __init__(self, groups: List[List[SettingOptionDescription]], names: Optional[List[str]] = None) -> None:
        if not groups or any(not group for group in groups):
            raise SchemaError("settings document needs non-empty select groups")
        self.groups = [list(group) for group in groups]
        self.names = list(names) if names is not None else ["" for _ in groups]
        if len(self.names) != len(self.groups):
            raise SchemaError("names and groups must be the same length")

    def to_dict(self) -> Dict[str, Any]:
        settings = []
        for name, group in zip(self.names, self.groups):
            entry: Dict[str, Any] = {"select": [opt.to_dict() for opt in group]}
            if name:
                entry["name"] = name
            settings.append(entry)
        data = {"settings": settings}
        SETTINGS_SCHEMA.validate(data)
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SettingsDocument":
        SETTINGS_SCHEMA.validate(data)
        groups = []
        names = []
        for entry in data["settings"]:
            groups.append(
                [SettingOptionDescription.from_dict(opt) for opt in entry["select"]]
            )
            names.append(entry.get("name", ""))
        return cls(groups, names)

    @classmethod
    def from_json(cls, text: str) -> "SettingsDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("invalid JSON: %s" % exc) from None
        return cls.from_dict(data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SettingsDocument):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return "SettingsDocument(%d groups)" % len(self.groups)
