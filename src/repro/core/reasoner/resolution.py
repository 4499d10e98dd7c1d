"""Resolution: combining the building's and the user's stances.

The building "is in charge of enforcing the policies by resolving these
conflicts while informing users about it through the personal privacy
assistant" (Section III-B).  Three strategies are provided; NEGOTIATE is
the paper's intended behaviour (preferences "might be partially or
completely met"), the other two are ablation baselines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import Effect
from repro.core.reasoner.matcher import MatchResult


class ResolutionStrategy(enum.Enum):
    """How to settle a building-vs-user disagreement."""

    BUILDING_WINS = "building_wins"
    """The building's policies prevail; objecting users are notified."""

    USER_WINS = "user_wins"
    """User opt-outs always prevail, even over mandatory policies."""

    NEGOTIATE = "negotiate"
    """The paper's behaviour: mandatory policies prevail (with user
    notification); otherwise user opt-outs are honoured and granularity
    is degraded to the strictest cap both sides accept."""


@dataclass(frozen=True)
class Resolution:
    """The outcome of resolving one request.

    ``granularity`` is meaningful only when ``effect`` is ALLOW: it is
    the finest granularity at which the request may proceed, never finer
    than what was requested.  ``notify_user`` is set when the outcome
    overrides the subject's stated preference, so the IoTA can inform
    her (step 6/7 of Figure 1).
    """

    effect: Effect
    granularity: GranularityLevel
    policy_ids: Tuple[str, ...] = ()
    preference_ids: Tuple[str, ...] = ()
    notify_user: bool = False
    reasons: Tuple[str, ...] = ()

    @property
    def allowed(self) -> bool:
        return self.effect is Effect.ALLOW

    @property
    def degraded(self) -> bool:
        """Whether the grant is at a coarser granularity than requested."""
        return self.allowed and bool(
            [r for r in self.reasons if r.startswith("degraded")]
        )


def _deny(
    match: MatchResult, reasons: List[str], notify: bool = False
) -> Resolution:
    return Resolution(
        effect=Effect.DENY,
        granularity=GranularityLevel.NONE,
        policy_ids=tuple(p.policy_id for p in match.policies),
        preference_ids=tuple(p.preference_id for p in match.preferences),
        notify_user=notify,
        reasons=tuple(reasons),
    )


def _allow(
    match: MatchResult,
    granularity: GranularityLevel,
    reasons: List[str],
    notify: bool = False,
) -> Resolution:
    if granularity is GranularityLevel.NONE:
        return _deny(match, reasons + ["granularity degraded to none"], notify)
    return Resolution(
        effect=Effect.ALLOW,
        granularity=granularity,
        policy_ids=tuple(p.policy_id for p in match.policies),
        preference_ids=tuple(p.preference_id for p in match.preferences),
        notify_user=notify,
        reasons=tuple(reasons),
    )


def _building_granularity(match: MatchResult) -> GranularityLevel:
    """The finest granularity any allowing policy authorizes."""
    return max(
        (p.granularity for p in match.allowing_policies),
        key=lambda g: g.rank,
    )


def _user_cap(match: MatchResult) -> GranularityLevel:
    """The strictest cap across the subject's applicable preferences.

    A DENY preference caps at NONE.  With no applicable preferences the
    user imposes no cap (PRECISE).
    """
    if not match.preferences:
        return GranularityLevel.PRECISE
    return min(
        (p.permitted_granularity() for p in match.preferences),
        key=lambda g: g.rank,
    )


def resolve(
    match: MatchResult,
    strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
) -> Resolution:
    """Resolve one matched request into a final decision.

    Invariants (property-tested):

    - a denying building policy always denies, under every strategy;
    - without building authorization the request is denied (the
      building is default-deny: it only does what a policy allows);
    - the granted granularity never exceeds the requested granularity;
    - under NEGOTIATE and USER_WINS, the granted granularity never
      exceeds the user's cap unless a mandatory policy forces it
      (NEGOTIATE) -- and then ``notify_user`` is set.
    """
    request = match.request

    if match.denying_policies:
        return _deny(
            match,
            ["denied by building policy %s" % match.denying_policies[0].policy_id],
        )
    if not match.has_building_authorization:
        return _deny(match, ["no building policy authorizes this practice"])

    building_granularity = _building_granularity(match)
    requested = request.granularity
    base = GranularityLevel.minimum(building_granularity, requested)
    user_cap = _user_cap(match)
    user_objects = user_cap.rank < base.rank
    mandatory = bool(match.mandatory_policies)

    if strategy is ResolutionStrategy.BUILDING_WINS:
        reasons = ["building policy grants %s" % base.value]
        if user_objects:
            reasons.append("user preference overridden (building wins)")
        return _allow(match, base, reasons, notify=user_objects)

    if strategy is ResolutionStrategy.USER_WINS:
        if match.user_objects:
            return _deny(
                match,
                [
                    "user preference %s denies"
                    % match.denying_preferences[0].preference_id
                ],
            )
        granted = GranularityLevel.minimum(base, user_cap)
        reasons = ["granted at %s" % granted.value]
        if granted.rank < base.rank:
            reasons.append("degraded to user cap %s" % user_cap.value)
        return _allow(match, granted, reasons)

    # NEGOTIATE (the paper's behaviour).
    if mandatory and user_objects:
        reasons = [
            "mandatory policy %s prevails over user preference"
            % match.mandatory_policies[0].policy_id,
            "user notified of unresolvable conflict",
        ]
        return _allow(match, base, reasons, notify=True)
    if match.user_objects:
        return _deny(
            match,
            [
                "user preference %s denies (negotiate honours opt-out)"
                % match.denying_preferences[0].preference_id
            ],
        )
    granted = GranularityLevel.minimum(base, user_cap)
    reasons = ["granted at %s" % granted.value]
    notify = False
    if granted.rank < base.rank:
        reasons.append("degraded to user cap %s" % user_cap.value)
    return _allow(match, granted, reasons, notify=notify)
