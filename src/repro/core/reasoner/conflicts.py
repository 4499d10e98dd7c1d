"""Conflict detection between building policies and user preferences.

"It is possible that user preferences conflict with the existing
building policies (e.g., Policy 2 and Preference 2).  These conflicts
should be detected by the smart building management system (e.g., with
the help of a policy reasoner)." (Section III-B.)

Detection is *static*: it compares rule scopes, not a concrete request,
so the building can warn a user the moment she submits a preference.
Selectors are compared exactly: some request must lie in both rules'
scopes (``Scope.overlaps``).  Only conditions are over-approximated,
and a condition is a time window or a profile group and nothing else:
a pair is reported even if its two conditions might never both hold
(disjoint hours, groups the subject is not in) -- sound (no missed
conflicts), possibly spurious only there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.policy.base import Effect
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference


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
            if not policy.scope.overlaps(preference.scope, spatial):
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
