"""Composable conditions over data requests.

Conditions are the "context specific requirements" of Section IV: a
rule applies only when its condition matches the request.  Conditions
evaluate against an :class:`EvaluationContext` that provides the spatial
model (for the ``contained`` operator) and the user directory (for
profile checks).

All conditions are immutable and combinable with :class:`AllOf`,
:class:`AnyOf`, and :class:`Not`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, RequesterKind
from repro.core.policy.scope import in_spaces
from repro.errors import PolicyError
from repro.spatial.model import SpatialModel


@dataclass
class EvaluationContext:
    """What conditions may consult besides the request itself.

    ``user_profiles`` maps user id to the set of group names the user
    belongs to (Section IV-A.2: "Profiles can be based on groups
    (students, faculty, staff etc.)").  ``seconds_per_day`` defaults to
    86400; the simulation clock counts seconds from its epoch, and
    temporal conditions interpret timestamps modulo one day.
    """

    spatial: Optional[SpatialModel] = None
    user_profiles: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    seconds_per_day: int = 86400

    def groups_of(self, user_id: str) -> FrozenSet[str]:
        return self.user_profiles.get(user_id, frozenset())

    def hour_of(self, timestamp: float) -> float:
        """Hour-of-day in [0, 24) for a simulation timestamp."""
        return (timestamp % self.seconds_per_day) / (self.seconds_per_day / 24.0)

    def day_index_of(self, timestamp: float) -> int:
        """Day number since the simulation epoch (day 0 = Monday)."""
        return int(timestamp // self.seconds_per_day)


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
class SpatialCondition(Condition):
    """Matches requests whose space is (contained in) ``space_id``.

    A request with no space matches only when ``match_unlocated``.
    """

    time_sensitive = False

    space_id: str
    match_unlocated: bool = False

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        if request.space_id is None:
            return self.match_unlocated
        return in_spaces(request.space_id, (self.space_id,), context.spatial)


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
class SubjectCondition(Condition):
    """Matches requests about one specific subject."""

    time_sensitive = False

    subject_id: str

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return request.subject_id == self.subject_id


@dataclass(frozen=True)
class PurposeCondition(Condition):
    """Matches requests declaring one of the listed purposes."""

    time_sensitive = False

    purposes: Tuple[Purpose, ...]

    def __post_init__(self) -> None:
        if not self.purposes:
            raise PolicyError("PurposeCondition needs >= 1 purpose")

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return request.purpose in self.purposes


@dataclass(frozen=True)
class RequesterCondition(Condition):
    """Matches requests from specific requesters or requester kinds."""

    time_sensitive = False

    requester_ids: Tuple[str, ...] = ()
    kinds: Tuple[RequesterKind, ...] = ()

    def __post_init__(self) -> None:
        if not self.requester_ids and not self.kinds:
            raise PolicyError("RequesterCondition needs ids or kinds")

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        if self.requester_ids and request.requester_id in self.requester_ids:
            return True
        return bool(self.kinds) and request.requester_kind in self.kinds


@dataclass(frozen=True)
class CategoryCondition(Condition):
    """Matches requests for one of the listed data categories."""

    time_sensitive = False

    categories: Tuple[DataCategory, ...]

    def __post_init__(self) -> None:
        if not self.categories:
            raise PolicyError("CategoryCondition needs >= 1 category")

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return request.category in self.categories


@dataclass(frozen=True)
class GranularityCondition(Condition):
    """Matches requests asking for granularity finer than ``threshold``.

    Useful for preferences like "notify me only when precise location
    is requested".
    """

    time_sensitive = False

    finer_than: GranularityLevel

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return request.granularity.rank > self.finer_than.rank


@dataclass(frozen=True)
class SensorTypeCondition(Condition):
    """Matches requests sourced from one of the listed sensor types."""

    time_sensitive = False

    sensor_types: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.sensor_types:
            raise PolicyError("SensorTypeCondition needs >= 1 sensor type")

    def matches(self, request: DataRequest, context: EvaluationContext) -> bool:
        return request.sensor_type in self.sensor_types


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
