"""Controlled vocabularies of the policy language.

Section IV-B.3 says the authors are "working on a taxonomy to model
purpose which includes information about whether or not the data is
shared ... and for how long it will be stored".  This module provides
that taxonomy plus the data-category and granularity vocabularies the
rest of the language references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import SchemaError


class Purpose(enum.Enum):
    """Why data is collected or used.

    The values cover the purposes the paper names (emergency response,
    providing a service, security/logging, comfort) plus the sharing
    destinations Peppet's analysis highlights (law enforcement,
    third parties, research, marketing).
    """

    EMERGENCY_RESPONSE = "emergency_response"
    PROVIDING_SERVICE = "providing_service"
    SECURITY = "security"
    LOGGING = "logging"
    COMFORT = "comfort"
    ENERGY_MANAGEMENT = "energy_management"
    ACCESS_CONTROL = "access_control"
    RESEARCH = "research"
    MARKETING = "marketing"
    LAW_ENFORCEMENT = "law_enforcement"

    # Members compare by identity, so they hash by it too: the C slot
    # keeps dict probes keyed by members (the compiled enforcement
    # table's) off the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__

    @classmethod
    def from_string(cls, value: str) -> "Purpose":
        try:
            return cls(value)
        except ValueError:
            raise SchemaError("unknown purpose %r" % value) from None


@dataclass(frozen=True)
class PurposeInfo:
    """Taxonomy entry: how sensitive a purpose is and who sees the data.

    ``sensitivity`` in [0, 1] drives the IoTA's notification relevance
    model; ``shared_beyond_building`` marks purposes that imply the data
    leaves the building operator (the paper's "whether or not the data
    is shared").
    """

    purpose: Purpose
    description: str
    sensitivity: float
    shared_beyond_building: bool
    benefits_user_directly: bool


PURPOSE_TAXONOMY: Dict[Purpose, PurposeInfo] = {
    info.purpose: info
    for info in (
        PurposeInfo(
            Purpose.EMERGENCY_RESPONSE,
            "locating inhabitants during emergencies",
            sensitivity=0.4,
            shared_beyond_building=False,
            benefits_user_directly=True,
        ),
        PurposeInfo(
            Purpose.PROVIDING_SERVICE,
            "powering a service the user opted into",
            sensitivity=0.3,
            shared_beyond_building=False,
            benefits_user_directly=True,
        ),
        PurposeInfo(
            Purpose.SECURITY,
            "physical security of the building",
            sensitivity=0.5,
            shared_beyond_building=False,
            benefits_user_directly=False,
        ),
        PurposeInfo(
            Purpose.LOGGING,
            "operational logging and troubleshooting",
            sensitivity=0.35,
            shared_beyond_building=False,
            benefits_user_directly=False,
        ),
        PurposeInfo(
            Purpose.COMFORT,
            "adjusting environmental comfort (HVAC, lighting)",
            sensitivity=0.2,
            shared_beyond_building=False,
            benefits_user_directly=True,
        ),
        PurposeInfo(
            Purpose.ENERGY_MANAGEMENT,
            "reducing building energy consumption",
            sensitivity=0.25,
            shared_beyond_building=False,
            benefits_user_directly=False,
        ),
        PurposeInfo(
            Purpose.ACCESS_CONTROL,
            "controlling entry to restricted spaces",
            sensitivity=0.45,
            shared_beyond_building=False,
            benefits_user_directly=True,
        ),
        PurposeInfo(
            Purpose.RESEARCH,
            "research studies on building usage",
            sensitivity=0.6,
            shared_beyond_building=True,
            benefits_user_directly=False,
        ),
        PurposeInfo(
            Purpose.MARKETING,
            "marketing and advertising",
            sensitivity=0.9,
            shared_beyond_building=True,
            benefits_user_directly=False,
        ),
        PurposeInfo(
            Purpose.LAW_ENFORCEMENT,
            "sharing with law enforcement officers",
            sensitivity=0.8,
            shared_beyond_building=True,
            benefits_user_directly=False,
        ),
    )
}


class DataCategory(enum.Enum):
    """Abstract data types: what is collected or can be *inferred*.

    Section IV-B.2: "a user might be more interested in knowing what can
    be inferred from the collected data", e.g. "a room is occupied by
    anyone" rather than "images from camera, logs from WiFi APs".
    """

    LOCATION = "location"
    PRESENCE = "presence"
    OCCUPANCY = "occupancy"
    IDENTITY = "identity"
    ACTIVITY = "activity"
    ENERGY_USE = "energy_use"
    TEMPERATURE = "temperature"
    MEETING_DETAILS = "meeting_details"
    SOCIAL_TIES = "social_ties"

    __hash__ = object.__hash__  # see Purpose

    @classmethod
    def from_string(cls, value: str) -> "DataCategory":
        try:
            return cls(value)
        except ValueError:
            raise SchemaError("unknown data category %r" % value) from None


#: Base sensitivity of each data category, used by the IoTA relevance
#: model and by inference-risk scoring.  Identity and social ties are the
#: most sensitive; ambient temperature the least.
DATA_SENSITIVITY: Dict[DataCategory, float] = {
    DataCategory.LOCATION: 0.7,
    DataCategory.PRESENCE: 0.5,
    DataCategory.OCCUPANCY: 0.4,
    DataCategory.IDENTITY: 1.0,
    DataCategory.ACTIVITY: 0.8,
    DataCategory.ENERGY_USE: 0.3,
    DataCategory.TEMPERATURE: 0.1,
    DataCategory.MEETING_DETAILS: 0.6,
    DataCategory.SOCIAL_TIES: 0.9,
}


class GranularityLevel(enum.Enum):
    """Granularity at which a data category is captured or shared.

    Figure 4's setting options ("fine grained location sensing",
    "coarse grained location sensing", "No location sensing") map to
    :attr:`PRECISE`, :attr:`COARSE`, and :attr:`NONE`.  The intermediate
    levels allow the enforcement engine to negotiate between them.
    """

    PRECISE = "precise"      # exact room / raw reading
    COARSE = "coarse"        # floor-level / bucketed reading
    BUILDING = "building"    # building-level presence only
    AGGREGATE = "aggregate"  # only in k-anonymous aggregates
    NONE = "none"            # not collected / not shared at all

    __hash__ = object.__hash__  # see Purpose

    @property
    def rank(self) -> int:
        """Fineness rank: higher reveals more (none=0 ... precise=4)."""
        return _GRANULARITY_RANK[self]

    def at_most(self, other: "GranularityLevel") -> bool:
        """Whether this level reveals no more than ``other``."""
        return self.rank <= other.rank

    @classmethod
    def from_string(cls, value: str) -> "GranularityLevel":
        try:
            return cls(value)
        except ValueError:
            raise SchemaError("unknown granularity %r" % value) from None

    @classmethod
    def minimum(cls, a: "GranularityLevel", b: "GranularityLevel") -> "GranularityLevel":
        """The coarser (less revealing) of two levels."""
        return a if a.rank <= b.rank else b


_GRANULARITY_RANK: Dict[GranularityLevel, int] = {
    level: rank
    for rank, level in enumerate(
        (
            GranularityLevel.NONE,
            GranularityLevel.AGGREGATE,
            GranularityLevel.BUILDING,
            GranularityLevel.COARSE,
            GranularityLevel.PRECISE,
        )
    )
}


def sensitivity_of(
    category: DataCategory,
    purpose: Optional[Purpose] = None,
    granularity: GranularityLevel = GranularityLevel.PRECISE,
) -> float:
    """Composite sensitivity score in [0, 1] of a data practice.

    Combines the base sensitivity of the data category, the sensitivity
    of the purpose (sharing-heavy purposes dominate), and a granularity
    discount (coarser data is less sensitive).  This single scalar is
    what the IoTA thresholds when deciding whether a practice is worth a
    notification (Section V-B's user-fatigue concern).
    """
    base = DATA_SENSITIVITY[category]
    if purpose is not None:
        info = PURPOSE_TAXONOMY[purpose]
        base = max(base * 0.6 + info.sensitivity * 0.4, base * 0.5)
        if info.shared_beyond_building:
            base = min(1.0, base + 0.2)
        if info.benefits_user_directly:
            base = max(0.0, base - 0.1)
    discount = {
        GranularityLevel.PRECISE: 1.0,
        GranularityLevel.COARSE: 0.7,
        GranularityLevel.BUILDING: 0.45,
        GranularityLevel.AGGREGATE: 0.25,
        GranularityLevel.NONE: 0.0,
    }[granularity]
    return round(base * discount, 6)
