"""User preferences and service permissions.

"A user preference is a representation of the user's expectation of how
data pertaining to her should be managed by the pervasive space.  These
preferences might be partially or completely met depending on other
policies and user preferences existing in the same space."
(Section III-B.)

Two kinds are modelled, matching the paper's examples:

- :class:`UserPreference` -- restrictions on the building's handling of
  the user's data (Preferences 1 and 2);
- :class:`ServicePermission` -- per-service grants, "similar to how the
  permissions are managed in mobile apps" (Preferences 3 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import Always, Condition, EvaluationContext
from repro.core.policy.scope import Scope
from repro.errors import PolicyError


@dataclass(frozen=True)
class UserPreference:
    """A user's restriction (or explicit allowance) on her data.

    ``granularity_cap`` expresses partial restrictions: "share my
    location at floor level only" is ``effect=ALLOW`` with
    ``granularity_cap=COARSE``.  A hard opt-out is ``effect=DENY``
    (the cap is then irrelevant).

    ``strength`` in [0, 1] encodes how strongly the user holds the
    preference; the IoTA's learner produces values < 1 and resolution
    strategies may treat weak preferences as negotiable.
    """

    preference_id: str
    user_id: str
    description: str
    effect: Effect
    categories: Tuple[DataCategory, ...] = ()
    phases: Tuple[DecisionPhase, ...] = (DecisionPhase.SHARING,)
    requester_ids: Tuple[str, ...] = ()
    requester_kinds: Tuple[RequesterKind, ...] = ()
    purposes: Tuple[Purpose, ...] = ()
    space_ids: Tuple[str, ...] = ()
    granularity_cap: GranularityLevel = GranularityLevel.PRECISE
    condition: Condition = field(default_factory=Always)
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not self.preference_id:
            raise PolicyError("preference_id must be non-empty")
        if not self.user_id:
            raise PolicyError("user_id must be non-empty")
        if not 0.0 <= self.strength <= 1.0:
            raise PolicyError("strength must lie in [0, 1]")
        if not self.phases:
            raise PolicyError(
                "preference %r applies to no phase" % self.preference_id
            )

    @cached_property
    def scope(self) -> Scope:
        """The requests this preference's phases and selectors admit, all
        of them about its own user."""
        return Scope.of(
            self.phases, self.categories, purposes=self.purposes,
            requester_ids=self.requester_ids, requester_kinds=self.requester_kinds,
            space_ids=self.space_ids, subject_ids=(self.user_id,),
        )

    def applies_to(self, request: DataRequest, context: EvaluationContext) -> bool:
        """Whether its scope admits ``request`` and its condition matches."""
        return self.scope.admits(request, context.spatial) and self.condition.matches(
            request, context
        )

    @property
    def is_opt_out(self) -> bool:
        return self.effect is Effect.DENY or self.granularity_cap is GranularityLevel.NONE

    def permitted_granularity(self) -> GranularityLevel:
        """The finest granularity this preference tolerates."""
        if self.effect is Effect.DENY:
            return GranularityLevel.NONE
        return self.granularity_cap

    def __str__(self) -> str:
        return "%s(%s: %s)" % (self.preference_id, self.user_id, self.description)


@dataclass(frozen=True)
class ServicePermission:
    """A user's grant to one service, app-permission style.

    Example (Preference 3): "Allow Concierge access to my fine grained
    location for directions" is a grant of ``LOCATION`` at ``PRECISE``
    granularity to service ``concierge`` for ``PROVIDING_SERVICE``.
    """

    user_id: str
    service_id: str
    category: DataCategory
    granularity: GranularityLevel
    purposes: Tuple[Purpose, ...] = (Purpose.PROVIDING_SERVICE,)
    granted: bool = True

    def __post_init__(self) -> None:
        if not self.user_id or not self.service_id:
            raise PolicyError("user_id and service_id must be non-empty")

    def to_preference(self) -> UserPreference:
        """The equivalent :class:`UserPreference`.

        TIPPERS stores permissions uniformly as preferences so a single
        enforcement path handles both.
        """
        effect = Effect.ALLOW if self.granted else Effect.DENY
        return UserPreference(
            preference_id="perm:%s:%s:%s" % (self.user_id, self.service_id, self.category.value),
            user_id=self.user_id,
            description="%s %s access to %s at %s granularity"
            % (
                "Allow" if self.granted else "Deny",
                self.service_id,
                self.category.value,
                self.granularity.value,
            ),
            effect=effect,
            categories=(self.category,),
            phases=(DecisionPhase.SHARING, DecisionPhase.PROCESSING),
            requester_ids=(self.service_id,),
            purposes=self.purposes,
            granularity_cap=self.granularity if self.granted else GranularityLevel.NONE,
        )
