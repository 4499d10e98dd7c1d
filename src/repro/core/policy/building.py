"""Building policies.

A :class:`BuildingPolicy` "states requirements for data collection and
management set by the temporary or permanent owner" (Section III-A).
It has two faces:

- a *data rule*: which data (categories, sensor types, spaces, phases)
  the building collects or shares, for which purposes, at which
  granularity, and for how long;
- optional *actuation rules* that translate the policy "into settings
  that change the state of sensors" -- the paper's Policy 1 walks
  through exactly that pipeline for thermostats.

The four example policies from the paper are provided as constructors
in :mod:`repro.core.policy.catalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.core.language.duration import Duration
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect
from repro.core.policy.conditions import Always, Condition, EvaluationContext
from repro.core.policy.scope import Scope
from repro.errors import PolicyError


@dataclass(frozen=True)
class ActuationRule:
    """A settings change applied to matching sensors when a trigger holds.

    ``trigger`` is an abstract predicate name evaluated by the building
    (e.g. ``"occupied"``); ``sensor_type`` selects the target sensors in
    the policy's spaces; ``settings`` is the parameter update to apply.
    """

    sensor_type: str
    settings: Dict[str, object]
    trigger: str = "always"

    def __post_init__(self) -> None:
        if not self.settings:
            raise PolicyError("ActuationRule needs a non-empty settings dict")


@dataclass(frozen=True)
class BuildingPolicy:
    """A building-side rule over data requests, plus actuation."""

    policy_id: str
    name: str
    description: str
    effect: Effect = Effect.ALLOW
    categories: Tuple[DataCategory, ...] = ()
    sensor_types: Tuple[str, ...] = ()
    space_ids: Tuple[str, ...] = ()
    phases: Tuple[DecisionPhase, ...] = (
        DecisionPhase.CAPTURE,
        DecisionPhase.STORAGE,
    )
    purposes: Tuple[Purpose, ...] = ()
    granularity: GranularityLevel = GranularityLevel.PRECISE
    retention: Optional[Duration] = None
    condition: Condition = field(default_factory=Always)
    actuations: Tuple[ActuationRule, ...] = ()
    mandatory: bool = False
    """Mandatory policies "(in most cases) have to be met completely by
    the other actors" -- user preferences cannot override them (e.g.
    emergency-response location capture)."""

    priority: int = 0

    def __post_init__(self) -> None:
        if not self.policy_id:
            raise PolicyError("policy_id must be non-empty")
        if not self.phases:
            raise PolicyError("policy %r applies to no phase" % self.policy_id)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    @cached_property
    def scope(self) -> Scope:
        """The requests this policy's phases and selectors admit."""
        return Scope.of(
            self.phases, self.categories, self.sensor_types, self.purposes,
            space_ids=self.space_ids,
        )

    def applies_to(self, request: DataRequest, context: EvaluationContext) -> bool:
        """Whether its scope admits ``request`` and its condition matches."""
        return self.scope.admits(request, context.spatial) and self.condition.matches(
            request, context
        )

    # ------------------------------------------------------------------
    # Introspection used by the reasoner and the IRR
    # ------------------------------------------------------------------
    @property
    def collects_personal_data(self) -> bool:
        """Whether the policy authorizes collection of person-linked data."""
        personal = {
            DataCategory.LOCATION,
            DataCategory.PRESENCE,
            DataCategory.IDENTITY,
            DataCategory.ACTIVITY,
            DataCategory.SOCIAL_TIES,
            DataCategory.MEETING_DETAILS,
        }
        return self.effect is Effect.ALLOW and bool(set(self.categories) & personal)

    def retention_seconds(self) -> Optional[int]:
        return None if self.retention is None else self.retention.total_seconds()

    def __str__(self) -> str:
        return "%s(%s)" % (self.policy_id, self.name)
