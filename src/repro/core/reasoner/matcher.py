"""Request-level matching of policies and preferences."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.policy.base import DataRequest, Effect
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.index import LinearRuleStore, RuleStore


@dataclass
class MatchResult:
    """The rules that govern one request."""

    request: DataRequest
    policies: List[BuildingPolicy] = field(default_factory=list)
    preferences: List[UserPreference] = field(default_factory=list)

    @property
    def allowing_policies(self) -> List[BuildingPolicy]:
        return [p for p in self.policies if p.effect is Effect.ALLOW]

    @property
    def denying_policies(self) -> List[BuildingPolicy]:
        return [p for p in self.policies if p.effect is Effect.DENY]

    @property
    def mandatory_policies(self) -> List[BuildingPolicy]:
        return [p for p in self.policies if p.mandatory]

    @property
    def denying_preferences(self) -> List[UserPreference]:
        return [p for p in self.preferences if p.effect is Effect.DENY]

    @property
    def allowing_preferences(self) -> List[UserPreference]:
        return [p for p in self.preferences if p.effect is Effect.ALLOW]

    @property
    def has_building_authorization(self) -> bool:
        """Whether any building policy authorizes the practice."""
        return bool(self.allowing_policies)

    @property
    def user_objects(self) -> bool:
        """Whether the subject's preferences object to the practice."""
        return bool(self.denying_preferences)


class PolicyMatcher:
    """Evaluates which rules in a store apply to a request.

    The store decides the candidate set (linear scan or index); the
    matcher applies the precise ``applies_to`` predicate on candidates.
    """

    def __init__(
        self,
        store: Optional[RuleStore] = None,
        context: Optional[EvaluationContext] = None,
    ) -> None:
        self.store = store if store is not None else LinearRuleStore()
        self.context = context if context is not None else EvaluationContext()

    def candidates(
        self, request: DataRequest
    ) -> Tuple[List[BuildingPolicy], List[UserPreference]]:
        """The store's candidate policies and preferences for ``request``:
        the one policy-store fetch a decision makes."""
        return (
            self.store.candidate_policies(request),
            self.store.candidate_preferences(request),
        )

    def match(
        self,
        request: DataRequest,
        candidates: Optional[
            Tuple[List[BuildingPolicy], List[UserPreference]]
        ] = None,
    ) -> MatchResult:
        """All policies and preferences governing ``request``.

        ``candidates`` reuses an earlier :meth:`candidates` fetch instead
        of consulting the store again.  Results are ordered
        deterministically: policies by descending priority then id;
        preferences by id.
        """
        if candidates is None:
            candidates = self.candidates(request)
        candidate_policies, candidate_preferences = candidates
        policies = [
            p
            for p in candidate_policies
            if p.applies_to(request, self.context)
        ]
        policies.sort(key=lambda p: (-p.priority, p.policy_id))
        preferences = [
            p
            for p in candidate_preferences
            if p.applies_to(request, self.context)
        ]
        preferences.sort(key=lambda p: p.preference_id)
        return MatchResult(request=request, policies=policies, preferences=preferences)
