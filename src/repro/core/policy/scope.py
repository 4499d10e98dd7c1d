"""Which requests a rule governs: one algebra over rule scopes.

A building policy or user preference governs a request when the
request lies in the rule's :class:`Scope` and the rule's condition
matches.  The matchers call :meth:`Scope.admits`, the policy lint
:meth:`Scope.covers` (P005) and :meth:`Scope.key` (P006, P011), and
conflict detection :meth:`Scope.overlaps`; the last three are exact
under ``admits``.  Spaces nest (:func:`in_spaces`) and a request names
one space, so two space selectors share a request exactly when a space
of one contains a space of the other; footprints play no part.
"""

from __future__ import annotations

from typing import Collection, FrozenSet, Iterable, NamedTuple, Optional

from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, RequesterKind
from repro.spatial.model import SpatialModel

#: The wildcard, shared by every scope that leaves a selector empty.
_ANY: FrozenSet = frozenset()

#: Closed vocabularies: a selector listing all of one is the wildcard.
_PHASES = frozenset(DecisionPhase)
_CATEGORIES = frozenset(DataCategory)
_KINDS = frozenset(RequesterKind)

#: The fields of a :class:`Scope` that admit a value by plain membership.
_PLAIN = slice(0, 7)


def _selector(values: Iterable, vocabulary: FrozenSet = _ANY) -> FrozenSet:
    selected = frozenset(values)
    return _ANY if not selected or selected == vocabulary else selected


def _meet(mine: FrozenSet, theirs: FrozenSet) -> bool:
    return not mine or not theirs or not mine.isdisjoint(theirs)


def _within(theirs: FrozenSet, mine: FrozenSet) -> bool:
    return not mine or bool(theirs) and theirs <= mine


def in_spaces(
    space_id: Optional[str], space_ids: Collection[str], spatial: Optional[SpatialModel]
) -> bool:
    """Whether a request in ``space_id`` lies in (or is) one of ``space_ids``.
    A request with no space lies in none; without a spatial model, or for
    a space the model does not know, the ids must be equal."""
    if space_id is None:
        return False
    if spatial is None or space_id not in spatial:
        return space_id in space_ids
    return any(space.space_id in space_ids for space in spatial.path_to_root(space_id))


class Scope(NamedTuple):
    """A rule's selectors as frozensets; an empty one is the wildcard.
    :meth:`of` builds one from any iterables, normalized."""

    phases: FrozenSet[DecisionPhase]
    categories: FrozenSet[DataCategory]
    sensor_types: FrozenSet[str]
    purposes: FrozenSet[Purpose]
    requester_ids: FrozenSet[str]
    requester_kinds: FrozenSet[RequesterKind]
    subject_ids: FrozenSet[str]
    space_ids: FrozenSet[str]

    @classmethod
    def of(
        cls, phases=(), categories=(), sensor_types=(), purposes=(),
        requester_ids=(), requester_kinds=(), subject_ids=(), space_ids=(),
    ) -> Scope:
        return cls(
            _selector(phases, _PHASES), _selector(categories, _CATEGORIES),
            _selector(sensor_types), _selector(purposes), _selector(requester_ids),
            _selector(requester_kinds, _KINDS), _selector(subject_ids),
            _selector(space_ids),
        )

    def admits(self, request: DataRequest, spatial: Optional[SpatialModel]) -> bool:
        """Whether ``request`` lies in this scope."""
        if self.subject_ids and request.subject_id not in self.subject_ids:
            return False
        if self.phases and request.phase not in self.phases:
            return False
        if self.categories and request.category not in self.categories:
            return False
        if self.sensor_types and request.sensor_type not in self.sensor_types:
            return False
        if self.purposes and request.purpose not in self.purposes:
            return False
        if self.requester_ids and request.requester_id not in self.requester_ids:
            return False
        if self.requester_kinds and request.requester_kind not in self.requester_kinds:
            return False
        return not self.space_ids or in_spaces(request.space_id, self.space_ids, spatial)

    def covers(self, other: Scope, spatial: Optional[SpatialModel]) -> bool:
        """Whether this scope admits every request ``other`` admits.  A
        space selector admits whole subtrees, so it need only admit a
        request in each of ``other``'s spaces."""
        return all(map(_within, other[_PLAIN], self[_PLAIN])) and (
            not self.space_ids or bool(other.space_ids) and all(
                in_spaces(space_id, self.space_ids, spatial)
                for space_id in other.space_ids
            )
        )

    def overlaps(self, other: Scope, spatial: Optional[SpatialModel]) -> bool:
        """Whether some request lies in both scopes."""
        return all(map(_meet, self[_PLAIN], other[_PLAIN])) and (
            not self.space_ids or not other.space_ids
            or any(in_spaces(s, other.space_ids, spatial) for s in self.space_ids)
            or any(in_spaces(s, self.space_ids, spatial) for s in other.space_ids)
        )

    def key(self, spatial: Optional[SpatialModel]) -> Scope:
        """A canonical form: two scopes have equal keys exactly when each
        covers the other.  The space selector keeps only its maximal
        spaces, since a listed space inside another admits nothing more."""
        return self._replace(space_ids=frozenset(
            space_id for space_id in self.space_ids
            if not in_spaces(space_id, self.space_ids - {space_id}, spatial)
        ))
