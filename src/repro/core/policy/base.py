"""Shared policy vocabulary: effects, phases, and data requests."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.errors import PolicyError


class Effect(enum.Enum):
    """What a matched rule does to a request."""

    ALLOW = "allow"
    DENY = "deny"

    # Members compare by identity, so they hash by it too: the C slot
    # keeps dict probes keyed by members (the compiled enforcement
    # table's) off the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__


class DecisionPhase(enum.Enum):
    """Where in the data lifecycle a rule applies.

    Section V-C: policies are enforced "when (during capture, storage,
    processing, or sharing)".
    """

    CAPTURE = "capture"
    STORAGE = "storage"
    PROCESSING = "processing"
    SHARING = "sharing"

    __hash__ = object.__hash__  # see Effect


class RequesterKind(enum.Enum):
    """Who is asking for the data."""

    BUILDING = "building"          # the BMS itself (capture/storage)
    BUILDING_SERVICE = "building_service"
    THIRD_PARTY_SERVICE = "third_party_service"
    USER = "user"                  # another inhabitant
    EXTERNAL = "external"          # e.g. law enforcement

    __hash__ = object.__hash__  # see Effect


@dataclass(frozen=True)
class DataRequest:
    """A concrete request for (or capture of) data about a subject.

    This is the unit both the reasoner and the enforcement engine work
    on: "service S requests the location of Mary at room 2011, at
    precise granularity, for purpose providing_service, during the
    sharing phase".

    ``subject_id`` is ``None`` for non-attributable data (e.g. ambient
    temperature), which no user preference can restrict.
    """

    requester_id: str
    requester_kind: RequesterKind
    phase: DecisionPhase
    category: DataCategory
    subject_id: Optional[str]
    space_id: Optional[str]
    timestamp: float
    purpose: Optional[Purpose] = None
    granularity: GranularityLevel = GranularityLevel.PRECISE
    sensor_type: Optional[str] = None
    attributes: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.requester_id:
            raise PolicyError("requester_id must be non-empty")
        if self.timestamp < 0:
            raise PolicyError("timestamp must be non-negative")

    @property
    def is_attributable(self) -> bool:
        """Whether the data can be tied to a person."""
        return self.subject_id is not None
