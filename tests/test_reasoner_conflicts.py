"""Unit tests for static conflict detection."""

import pytest

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.conflicts import (
    Conflict,
    ConflictKind,
    detect_conflicts,
    detect_conflicts_by_user,
)
from repro.spatial.model import build_simple_building


def policy(**overrides) -> BuildingPolicy:
    defaults = dict(
        policy_id="p",
        name="p",
        description="d",
        effect=Effect.ALLOW,
        categories=(DataCategory.LOCATION,),
        phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
        granularity=GranularityLevel.PRECISE,
    )
    defaults.update(overrides)
    return BuildingPolicy(**defaults)


def preference(**overrides) -> UserPreference:
    defaults = dict(
        preference_id="f",
        user_id="mary",
        description="d",
        effect=Effect.DENY,
        categories=(DataCategory.LOCATION,),
        phases=(DecisionPhase.CAPTURE,),
    )
    defaults.update(overrides)
    return UserPreference(**defaults)


@pytest.fixture
def context():
    return EvaluationContext(spatial=build_simple_building("b", 2, 4))


class TestKinds:
    def test_hard_conflict_mandatory_vs_optout(self, context):
        conflicts = detect_conflicts([policy(mandatory=True)], [preference()], context)
        assert [c.kind for c in conflicts] == [ConflictKind.HARD]
        assert not conflicts[0].negotiable

    def test_effect_conflict_nonmandatory_vs_optout(self, context):
        conflicts = detect_conflicts([policy()], [preference()], context)
        assert [c.kind for c in conflicts] == [ConflictKind.EFFECT]
        assert conflicts[0].negotiable

    def test_granularity_conflict(self, context):
        capped = preference(
            effect=Effect.ALLOW, granularity_cap=GranularityLevel.COARSE
        )
        conflicts = detect_conflicts([policy()], [capped], context)
        assert [c.kind for c in conflicts] == [ConflictKind.GRANULARITY]

    def test_no_conflict_when_policy_coarser_than_cap(self, context):
        coarse_policy = policy(granularity=GranularityLevel.COARSE)
        capped = preference(
            effect=Effect.ALLOW, granularity_cap=GranularityLevel.COARSE
        )
        assert detect_conflicts([coarse_policy], [capped], context) == []

    def test_deny_policy_never_conflicts(self, context):
        assert detect_conflicts([policy(effect=Effect.DENY)], [preference()], context) == []


class TestScopeOverlap:
    def test_disjoint_categories_no_conflict(self, context):
        p = policy(categories=(DataCategory.ENERGY_USE,))
        assert detect_conflicts([p], [preference()], context) == []

    def test_disjoint_phases_no_conflict(self, context):
        f = preference(phases=(DecisionPhase.SHARING,))
        p = policy(phases=(DecisionPhase.CAPTURE,))
        assert detect_conflicts([p], [f], context) == []

    def test_disjoint_purposes_no_conflict(self, context):
        p = policy(purposes=(Purpose.SECURITY,))
        f = preference(purposes=(Purpose.MARKETING,))
        assert detect_conflicts([p], [f], context) == []

    def test_wildcard_categories_overlap_everything(self, context):
        p = policy(categories=())
        assert detect_conflicts([p], [preference()], context)

    def test_spatially_disjoint_no_conflict(self, context):
        p = policy(space_ids=("b-1001",))
        f = preference(space_ids=("b-2002",))
        assert detect_conflicts([p], [f], context) == []

    def test_spatial_containment_overlaps(self, context):
        p = policy(space_ids=("b",))
        f = preference(space_ids=("b-1001",))
        assert detect_conflicts([p], [f], context)

    def test_spatial_ids_without_model(self):
        p = policy(space_ids=("x",))
        f = preference(space_ids=("x",))
        assert detect_conflicts([p], [f], None)
        f2 = preference(space_ids=("y",))
        assert detect_conflicts([p], [f2], None) == []


class TestHelpers:
    def test_conflicts_by_user_filters(self, context):
        prefs = [preference(), preference(preference_id="f2", user_id="bob")]
        mine = detect_conflicts_by_user([policy()], prefs, context).get("mary", [])
        assert len(mine) == 1
        assert mine[0].preference.user_id == "mary"

    def test_describe_mentions_both_rules(self, context):
        conflict = detect_conflicts([policy(mandatory=True)], [preference()], context)[0]
        text = conflict.describe()
        assert "p" in text and "f" in text and "mary" in text
