"""Unit tests for conflict resolution strategies."""

import pytest

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.matcher import MatchResult
from repro.core.reasoner.resolution import ResolutionStrategy, resolve


def request(granularity=GranularityLevel.PRECISE) -> DataRequest:
    return DataRequest(
        requester_id="svc",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="r1",
        timestamp=0.0,
        purpose=Purpose.PROVIDING_SERVICE,
        granularity=granularity,
    )


def policy(pid="p", effect=Effect.ALLOW, granularity=GranularityLevel.PRECISE, mandatory=False):
    return BuildingPolicy(
        policy_id=pid,
        name=pid,
        description="d",
        effect=effect,
        granularity=granularity,
        mandatory=mandatory,
        phases=(DecisionPhase.SHARING,),
    )


def preference(pid="f", effect=Effect.DENY, cap=GranularityLevel.PRECISE):
    return UserPreference(
        preference_id=pid,
        user_id="mary",
        description="d",
        effect=effect,
        granularity_cap=cap,
        phases=(DecisionPhase.SHARING,),
    )


def match(policies=(), preferences=(), granularity=GranularityLevel.PRECISE):
    return MatchResult(
        request=request(granularity),
        policies=list(policies),
        preferences=list(preferences),
    )


ALL_STRATEGIES = list(ResolutionStrategy)


class TestUniversalInvariants:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_denying_policy_always_denies(self, strategy):
        result = resolve(
            match([policy("deny", effect=Effect.DENY), policy("allow")]), strategy
        )
        assert result.effect is Effect.DENY

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_no_authorization_denies(self, strategy):
        result = resolve(match([]), strategy)
        assert result.effect is Effect.DENY
        assert "no building policy" in result.reasons[0]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_grant_never_finer_than_requested(self, strategy):
        result = resolve(
            match([policy()], granularity=GranularityLevel.COARSE), strategy
        )
        if result.allowed:
            assert result.granularity.rank <= GranularityLevel.COARSE.rank

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_grant_never_finer_than_policy(self, strategy):
        result = resolve(
            match([policy(granularity=GranularityLevel.BUILDING)]), strategy
        )
        if result.allowed:
            assert result.granularity.rank <= GranularityLevel.BUILDING.rank


class TestNegotiate:
    def test_plain_allow(self):
        result = resolve(match([policy()]))
        assert result.allowed
        assert result.granularity is GranularityLevel.PRECISE
        assert not result.notify_user

    def test_user_optout_honoured(self):
        result = resolve(match([policy()], [preference()]))
        assert result.effect is Effect.DENY
        assert not result.notify_user

    def test_mandatory_overrides_optout_with_notification(self):
        result = resolve(match([policy(mandatory=True)], [preference()]))
        assert result.allowed
        assert result.notify_user

    def test_granularity_negotiated_down(self):
        result = resolve(
            match([policy()], [preference(effect=Effect.ALLOW, cap=GranularityLevel.COARSE)])
        )
        assert result.allowed
        assert result.granularity is GranularityLevel.COARSE
        assert result.degraded

    def test_strictest_cap_across_preferences(self):
        prefs = [
            preference("f1", effect=Effect.ALLOW, cap=GranularityLevel.COARSE),
            preference("f2", effect=Effect.ALLOW, cap=GranularityLevel.BUILDING),
        ]
        result = resolve(match([policy()], prefs))
        assert result.granularity is GranularityLevel.BUILDING

    def test_cap_of_none_denies(self):
        result = resolve(
            match([policy()], [preference(effect=Effect.ALLOW, cap=GranularityLevel.NONE)])
        )
        assert result.effect is Effect.DENY


class TestBuildingWins:
    def test_overrides_optout_and_notifies(self):
        result = resolve(
            match([policy()], [preference()]), ResolutionStrategy.BUILDING_WINS
        )
        assert result.allowed
        assert result.granularity is GranularityLevel.PRECISE
        assert result.notify_user

    def test_no_notification_without_objection(self):
        result = resolve(match([policy()]), ResolutionStrategy.BUILDING_WINS)
        assert result.allowed and not result.notify_user


class TestUserWins:
    def test_optout_beats_mandatory(self):
        result = resolve(
            match([policy(mandatory=True)], [preference()]),
            ResolutionStrategy.USER_WINS,
        )
        assert result.effect is Effect.DENY

    def test_cap_applied(self):
        result = resolve(
            match([policy()], [preference(effect=Effect.ALLOW, cap=GranularityLevel.AGGREGATE)]),
            ResolutionStrategy.USER_WINS,
        )
        assert result.allowed
        assert result.granularity is GranularityLevel.AGGREGATE


class TestResolutionMetadata:
    def test_rule_ids_recorded(self):
        result = resolve(match([policy("p9")], [preference("f9", effect=Effect.ALLOW)]))
        assert result.policy_ids == ("p9",)
        assert result.preference_ids == ("f9",)

    def test_reasons_non_empty(self):
        for strategy in ALL_STRATEGIES:
            result = resolve(match([policy()], [preference()]), strategy)
            assert result.reasons
