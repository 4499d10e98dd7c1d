"""Tests for the policy-checked social-ties query."""

import pytest

from repro.core.language.vocabulary import DataCategory
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.preference import UserPreference
from repro.errors import ServiceError

SVC = ("concierge", RequesterKind.BUILDING_SERVICE)


def allow_ties_policy():
    return BuildingPolicy(
        policy_id="ties-sharing",
        name="Social ties sharing",
        description="d",
        categories=(DataCategory.SOCIAL_TIES,),
        phases=(DecisionPhase.SHARING,),
    )


def colocate(tippers, world, pairs, rounds=3):
    """Repeatedly put pairs of users in the same room."""
    for round_no in range(rounds):
        now = 43200.0 + round_no * 400.0
        world.clear()
        for (person, mac, space) in pairs:
            world.put(person, mac, space)
        tippers.tick(now, world)
    return 43200.0 + rounds * 400.0


@pytest.fixture
def populated(tippers, world):
    tippers.define_policy(allow_ties_policy())
    now = colocate(
        tippers,
        world,
        [
            ("mary", "aa:bb:cc:00:00:01", "b-1001"),
            ("bob", "aa:bb:cc:00:00:02", "b-1001"),
        ],
    )
    return tippers, now


class TestFrequentContacts:
    def test_tie_released_when_both_allow(self, populated):
        tippers, now = populated
        response = tippers.request_manager.frequent_contacts(*SVC, "mary", now)
        assert response.allowed
        assert [c["contact"] for c in response.value] == ["bob"]
        assert response.value[0]["encounters"] >= 2

    def test_subject_optout_denies_query(self, populated):
        tippers, now = populated
        tippers.submit_preference(
            UserPreference(
                preference_id="no-ties-mary",
                user_id="mary",
                description="d",
                effect=Effect.DENY,
                categories=(DataCategory.SOCIAL_TIES,),
                phases=(DecisionPhase.SHARING,),
            )
        )
        response = tippers.request_manager.frequent_contacts(*SVC, "mary", now)
        assert not response.allowed

    def test_contact_optout_hides_the_pair(self, populated):
        tippers, now = populated
        tippers.submit_preference(
            UserPreference(
                preference_id="no-ties-bob",
                user_id="bob",
                description="d",
                effect=Effect.DENY,
                categories=(DataCategory.SOCIAL_TIES,),
                phases=(DecisionPhase.SHARING,),
            )
        )
        response = tippers.request_manager.frequent_contacts(*SVC, "mary", now)
        assert response.allowed
        assert response.value == [], "bob's opt-out protects the pair"

    def test_no_policy_means_denied(self, tippers, world):
        now = colocate(
            tippers,
            world,
            [
                ("mary", "aa:bb:cc:00:00:01", "b-1001"),
                ("bob", "aa:bb:cc:00:00:02", "b-1001"),
            ],
        )
        response = tippers.request_manager.frequent_contacts(*SVC, "mary", now)
        assert not response.allowed

    def test_unknown_user_rejected(self, populated):
        tippers, now = populated
        with pytest.raises(ServiceError):
            tippers.request_manager.frequent_contacts(*SVC, "ghost", now)

    def test_no_colocation_no_contacts(self, tippers, world):
        tippers.define_policy(allow_ties_policy())
        now = colocate(
            tippers,
            world,
            [
                ("mary", "aa:bb:cc:00:00:01", "b-1001"),
                ("bob", "aa:bb:cc:00:00:02", "b-1002"),
            ],
        )
        response = tippers.request_manager.frequent_contacts(*SVC, "mary", now)
        assert response.allowed
        assert response.value == []
