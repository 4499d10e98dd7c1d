"""Unit tests for the condition language, and for the scope selectors
that say which requests a rule reaches (conditions say only when)."""

import pytest

from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, RequesterKind
from repro.core.policy.conditions import (
    AllOf,
    Always,
    AnyOf,
    EvaluationContext,
    Not,
    ProfileCondition,
    TemporalCondition,
)
from repro.core.policy.scope import Scope, in_spaces
from repro.errors import PolicyError
from repro.spatial.model import build_simple_building


def request(**overrides) -> DataRequest:
    defaults = dict(
        requester_id="svc",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="b-1001",
        timestamp=12 * 3600.0,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


@pytest.fixture
def context():
    return EvaluationContext(
        spatial=build_simple_building("b", floors=2, rooms_per_floor=4),
        user_profiles={"mary": frozenset({"faculty"}), "bob": frozenset({"grad-student"})},
    )


class TestSpaceSelector:
    """``in_spaces``, the one space rule behind ``Scope.admits``."""

    def test_exact_match(self, context):
        assert in_spaces("b-1001", ("b-1001",), context.spatial)
        assert Scope.of(space_ids=("b-1001",)).admits(request(), context.spatial)

    def test_hierarchical_containment(self, context):
        assert in_spaces("b-1001", ("b",), context.spatial)
        assert in_spaces("b-1001", ("b-f1",), context.spatial)
        assert not in_spaces("b-1001", ("b-f2",), context.spatial)
        assert Scope.of(space_ids=("b",)).admits(request(), context.spatial)
        assert not Scope.of(space_ids=("b-f2",)).admits(request(), context.spatial)

    def test_unlocated_request(self, context):
        assert not in_spaces(None, ("b",), context.spatial)
        assert not Scope.of(space_ids=("b",)).admits(
            request(space_id=None), context.spatial
        )
        assert Scope.of().admits(request(space_id=None), context.spatial)

    def test_without_model_falls_back_to_id_equality(self):
        assert in_spaces("x", ("x",), None)
        assert not in_spaces("y", ("x",), None)
        assert not in_spaces("b-1001", ("b",), None)

    def test_unknown_condition_space_with_model(self, context):
        assert not in_spaces("b-1001", ("nowhere",), context.spatial)
        assert not Scope.of(space_ids=("nowhere",)).admits(request(), context.spatial)
        assert in_spaces("annex", ("annex",), context.spatial)
        assert not in_spaces("annex", ("b",), context.spatial)


class TestTemporalCondition:
    def test_simple_window(self, context):
        cond = TemporalCondition(start_hour=9, end_hour=17)
        assert cond.matches(request(timestamp=12 * 3600.0), context)
        assert not cond.matches(request(timestamp=18 * 3600.0), context)

    def test_window_boundaries_half_open(self, context):
        cond = TemporalCondition(start_hour=9, end_hour=17)
        assert cond.matches(request(timestamp=9 * 3600.0), context)
        assert not cond.matches(request(timestamp=17 * 3600.0), context)

    def test_wrapping_after_hours_window(self, context):
        cond = TemporalCondition(start_hour=18, end_hour=8)
        assert cond.matches(request(timestamp=22 * 3600.0), context)
        assert cond.matches(request(timestamp=3 * 3600.0), context)
        assert not cond.matches(request(timestamp=12 * 3600.0), context)

    def test_second_day_same_window(self, context):
        cond = TemporalCondition(start_hour=9, end_hour=17)
        assert cond.matches(request(timestamp=86400.0 + 10 * 3600.0), context)

    def test_weekdays_only(self, context):
        cond = TemporalCondition(start_hour=0, end_hour=24, weekdays_only=True)
        monday_noon = 12 * 3600.0
        saturday_noon = 5 * 86400.0 + 12 * 3600.0
        assert cond.matches(request(timestamp=monday_noon), context)
        assert not cond.matches(request(timestamp=saturday_noon), context)

    def test_invalid_hours_rejected(self):
        with pytest.raises(PolicyError):
            TemporalCondition(start_hour=-1, end_hour=10)
        with pytest.raises(PolicyError):
            TemporalCondition(start_hour=1, end_hour=25)


class TestProfileAndSubject:
    def test_profile_group_match(self, context):
        assert ProfileCondition("faculty").matches(request(), context)
        assert not ProfileCondition("staff").matches(request(), context)

    def test_profile_requires_subject(self, context):
        assert not ProfileCondition("faculty").matches(request(subject_id=None), context)

    def test_subject_condition(self, context):
        mary = Scope.of(subject_ids=("mary",))
        assert mary.admits(request(), context.spatial)
        assert not mary.admits(request(subject_id="bob"), context.spatial)
        assert not mary.admits(request(subject_id=None), context.spatial)


class TestSelectorConditions:
    """What the selector conditions said, now said by a rule's scope."""

    def test_purpose(self, context):
        scope = Scope.of(purposes=(Purpose.PROVIDING_SERVICE,))
        assert scope.admits(request(), context.spatial)
        assert not scope.admits(request(purpose=Purpose.SECURITY), context.spatial)

    def test_requester_by_id_and_kind(self, context):
        by_id = Scope.of(requester_ids=("svc",))
        by_kind = Scope.of(requester_kinds=(RequesterKind.BUILDING_SERVICE,))
        assert by_id.admits(request(), context.spatial)
        assert by_kind.admits(request(), context.spatial)
        assert not by_id.admits(request(requester_id="other"), context.spatial)
        assert not by_kind.admits(
            request(requester_kind=RequesterKind.THIRD_PARTY_SERVICE), context.spatial
        )

    def test_category(self, context):
        scope = Scope.of(categories=(DataCategory.LOCATION, DataCategory.PRESENCE))
        assert scope.admits(request(), context.spatial)
        assert not scope.admits(request(category=DataCategory.ENERGY_USE), context.spatial)

    def test_sensor_type(self, context):
        scope = Scope.of(sensor_types=("wifi_access_point",))
        assert scope.admits(request(sensor_type="wifi_access_point"), context.spatial)
        assert not scope.admits(request(sensor_type="camera"), context.spatial)
        assert not scope.admits(request(), context.spatial)


class TestCombinators:
    def test_all_of(self, context):
        business_hours = TemporalCondition(start_hour=9, end_hour=17)
        cond = AllOf((ProfileCondition("faculty"), business_hours))
        assert cond.matches(request(), context)
        assert not AllOf((ProfileCondition("staff"), business_hours)).matches(
            request(), context
        )

    def test_empty_all_of_matches(self, context):
        assert AllOf(()).matches(request(), context)

    def test_any_of(self, context):
        cond = AnyOf((ProfileCondition("staff"), ProfileCondition("faculty")))
        assert cond.matches(request(), context)

    def test_empty_any_of_matches_nothing(self, context):
        assert not AnyOf(()).matches(request(), context)

    def test_not(self, context):
        assert Not(ProfileCondition("staff")).matches(request(), context)

    def test_operator_sugar(self, context):
        cond = ProfileCondition("faculty") & TemporalCondition(9, 17)
        assert cond.matches(request(), context)
        cond = ProfileCondition("staff") | ProfileCondition("faculty")
        assert cond.matches(request(), context)
        assert (~ProfileCondition("staff")).matches(request(), context)

    def test_always(self, context):
        assert Always().matches(request(), context)


class TestEvaluationContext:
    def test_hour_of(self):
        context = EvaluationContext()
        assert context.hour_of(0.0) == 0.0
        assert context.hour_of(6 * 3600.0) == 6.0
        assert context.hour_of(86400.0 + 3600.0) == 1.0

    def test_day_index(self):
        context = EvaluationContext()
        assert context.day_index_of(10.0) == 0
        assert context.day_index_of(86400.0 * 3 + 5) == 3

    def test_groups_of_unknown_user_empty(self):
        assert EvaluationContext().groups_of("ghost") == frozenset()
