"""Conflict detection between building policies and user preferences.

"It is possible that user preferences conflict with the existing
building policies (e.g., Policy 2 and Preference 2).  These conflicts
should be detected by the smart building management system (e.g., with
the help of a policy reasoner)." (Section III-B.)

Detection is *static*: it compares rule scopes, not a concrete request,
so the building can warn a user the moment she submits a preference.
Because arbitrary conditions cannot be compared symbolically, two rules
whose explicit selectors overlap are reported as conflicting even if
their conditions might never both hold -- a sound over-approximation
(no missed conflicts, possibly spurious ones).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import Effect
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.spatial.model import SpatialModel


class ConflictKind(enum.Enum):
    """How a policy and a preference disagree."""

    HARD = "hard"
    """A mandatory building policy overlaps an opt-out preference: the
    preference cannot be honoured (Policy 2 vs Preference 2)."""

    EFFECT = "effect"
    """A non-mandatory allowing policy overlaps an opt-out preference:
    resolvable by denying (user wins) or allowing (building wins)."""

    GRANULARITY = "granularity"
    """Both sides allow, but the building collects finer data than the
    preference's cap: resolvable by degrading granularity."""


@dataclass(frozen=True)
class Conflict:
    """One detected disagreement."""

    kind: ConflictKind
    policy: BuildingPolicy
    preference: UserPreference

    @property
    def negotiable(self) -> bool:
        return self.kind is not ConflictKind.HARD

    def describe(self) -> str:
        return "%s conflict: policy %r vs preference %r of user %s" % (
            self.kind.value,
            self.policy.policy_id,
            self.preference.preference_id,
            self.preference.user_id,
        )


def _scopes_overlap(
    policy: BuildingPolicy,
    preference: UserPreference,
    spatial: Optional[SpatialModel],
) -> bool:
    """Whether the two rules can govern a common request.

    Empty selectors are wildcards; spaces overlap when either side is a
    wildcard or some pair of selected spaces overlaps in the model.
    """
    if policy.categories and preference.categories:
        if not set(policy.categories) & set(preference.categories):
            return False
    if not set(policy.phases) & set(preference.phases):
        return False
    if policy.purposes and preference.purposes:
        if not set(policy.purposes) & set(preference.purposes):
            return False
    if policy.space_ids and preference.space_ids:
        if spatial is None:
            if not set(policy.space_ids) & set(preference.space_ids):
                return False
        else:
            overlapping = any(
                a in spatial and b in spatial and spatial.overlap(a, b)
                for a in policy.space_ids
                for b in preference.space_ids
            )
            literal = bool(set(policy.space_ids) & set(preference.space_ids))
            if not overlapping and not literal:
                return False
    return True


def detect_conflicts(
    policies: Sequence[BuildingPolicy],
    preferences: Sequence[UserPreference],
    context: Optional[EvaluationContext] = None,
) -> List[Conflict]:
    """All conflicts between ``policies`` and ``preferences``.

    Only *allowing* policies can conflict with preferences: a policy
    that itself denies a practice can never clash with a user objecting
    to it, and a preference that allows can only clash via granularity.
    """
    spatial = context.spatial if context is not None else None
    conflicts: List[Conflict] = []
    for policy in policies:
        if policy.effect is not Effect.ALLOW:
            continue
        for preference in preferences:
            if not _scopes_overlap(policy, preference, spatial):
                continue
            conflict = _classify(policy, preference)
            if conflict is not None:
                conflicts.append(conflict)
    return conflicts


def _classify(policy: BuildingPolicy, preference: UserPreference) -> Optional[Conflict]:
    if preference.is_opt_out:
        kind = ConflictKind.HARD if policy.mandatory else ConflictKind.EFFECT
        return Conflict(kind=kind, policy=policy, preference=preference)
    if policy.granularity.rank > preference.granularity_cap.rank:
        return Conflict(
            kind=ConflictKind.GRANULARITY, policy=policy, preference=preference
        )
    return None


def detect_conflicts_by_user(
    policies: Sequence[BuildingPolicy],
    preferences: Sequence[UserPreference],
    context: Optional[EvaluationContext] = None,
    kinds: Optional[Sequence[ConflictKind]] = None,
) -> Dict[str, List[Conflict]]:
    """Whole-registry static driver: all-pairs conflicts grouped by user.

    This promotes the pairwise runtime check (one building, one user,
    the moment a preference is submitted) to a registry-wide audit: the
    policy linter runs it over every stored preference before any
    request is served, so self-contradictory advertisement sets are
    caught ahead of time.  ``kinds`` restricts the report (e.g. only
    ``ConflictKind.HARD`` for the lint gate); users without conflicts
    are omitted.
    """
    wanted = set(kinds) if kinds is not None else None
    by_user: Dict[str, List[Conflict]] = {}
    for conflict in detect_conflicts(policies, preferences, context):
        if wanted is not None and conflict.kind not in wanted:
            continue
        by_user.setdefault(conflict.preference.user_id, []).append(conflict)
    return by_user
