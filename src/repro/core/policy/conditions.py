"""Composable conditions over data requests.

Conditions are the "context specific requirements" of Section IV: a
rule applies only when its request lies in the rule's
:class:`~repro.core.policy.scope.Scope` *and* its condition matches.
The scope says which data, sensors, spaces, purposes, requesters and
subjects a rule reaches; a condition says only *when*: the time of day
(:class:`TemporalCondition`) and the subject's profile group
(:class:`ProfileCondition`), which no selector can express.  Conditions
evaluate against an :class:`EvaluationContext` that provides the user
directory (for profile checks).

All conditions are immutable and combinable with :class:`AllOf`,
:class:`AnyOf`, and :class:`Not`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.language.duration import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.core.policy.base import DataRequest
from repro.errors import PolicyError
from repro.spatial.model import SpatialModel


@dataclass
class EvaluationContext:
    """What rules may consult besides the request itself.

    ``spatial`` is the model a scope's space selector nests spaces by.
    ``user_profiles`` maps user id to the set of group names the user
    belongs to (Section IV-A.2: "Profiles can be based on groups
    (students, faculty, staff etc.)").  The simulation clock counts
    seconds from its epoch, and temporal conditions interpret
    timestamps modulo one day (:data:`SECONDS_PER_DAY`).
    """

    spatial: Optional[SpatialModel] = None
    user_profiles: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def groups_of(self, user_id: str) -> FrozenSet[str]:
        return self.user_profiles.get(user_id, frozenset())

    def hour_of(self, timestamp: float) -> float:
        """Hour-of-day in [0, 24) for a simulation timestamp."""
        return (timestamp % SECONDS_PER_DAY) / SECONDS_PER_HOUR

    def day_index_of(self, timestamp: float) -> int:
        """Day number since the simulation epoch (day 0 = Monday)."""
        return int(timestamp // SECONDS_PER_DAY)


class Condition:
    """Base class; subclasses implement :meth:`matches`."""

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        raise NotImplementedError

    @property
    def time_sensitive(self) -> bool:
        """Whether the outcome can change with the request timestamp.

        Decision caching may only reuse results for rules whose
        conditions are time-insensitive.  Unknown condition classes
        default to ``True`` (conservative: never cached wrongly).
        """
        return True

    def __and__(self, other: "Condition") -> "AllOf":
        return AllOf((self, other))

    def __or__(self, other: "Condition") -> "AnyOf":
        return AnyOf((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Always(Condition):
    """Matches every request."""

    time_sensitive = False

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return True


@dataclass(frozen=True)
class TemporalCondition(Condition):
    """Matches requests inside an hour-of-day window, optionally by day.

    The window ``[start_hour, end_hour)`` may wrap midnight, which is
    how Preference 1's "after-hours" (e.g. 18:00-08:00) is expressed.
    ``weekdays_only`` restricts to days 0-4 of each simulated week.
    """

    start_hour: float
    end_hour: float
    weekdays_only: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.start_hour <= 24.0 and 0.0 <= self.end_hour <= 24.0):
            raise PolicyError("hours must lie in [0, 24]")

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        if self.weekdays_only and context.day_index_of(request.timestamp) % 7 >= 5:
            return False
        hour = context.hour_of(request.timestamp)
        if self.start_hour <= self.end_hour:
            return self.start_hour <= hour < self.end_hour
        return hour >= self.start_hour or hour < self.end_hour


@dataclass(frozen=True)
class ProfileCondition(Condition):
    """Matches requests about subjects in a given group (e.g. "faculty")."""

    time_sensitive = False

    group: str

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        if request.subject_id is None:
            return False
        return self.group in context.groups_of(request.subject_id)


@dataclass(frozen=True)
class AllOf(Condition):
    """Conjunction; an empty conjunction matches everything."""

    conditions: Tuple[Condition, ...]

    @property
    def time_sensitive(self) -> bool:
        return any(c.time_sensitive for c in self.conditions)

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return all(c.matches(request, context) for c in self.conditions)


@dataclass(frozen=True)
class AnyOf(Condition):
    """Disjunction; an empty disjunction matches nothing."""

    conditions: Tuple[Condition, ...]

    @property
    def time_sensitive(self) -> bool:
        return any(c.time_sensitive for c in self.conditions)

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return any(c.matches(request, context) for c in self.conditions)


@dataclass(frozen=True)
class Not(Condition):
    """Negation."""

    condition: Condition

    @property
    def time_sensitive(self) -> bool:
        return self.condition.time_sensitive

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return not self.condition.matches(request, context)
