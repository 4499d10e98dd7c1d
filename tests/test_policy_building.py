"""Unit tests for building policies."""

import pytest

from repro.core.language.duration import Duration
from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import ActuationRule, BuildingPolicy
from repro.core.policy.conditions import EvaluationContext, TemporalCondition
from repro.errors import PolicyError
from repro.spatial.model import build_simple_building


def request(**overrides) -> DataRequest:
    defaults = dict(
        requester_id="building",
        requester_kind=RequesterKind.BUILDING,
        phase=DecisionPhase.CAPTURE,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="b-1001",
        timestamp=100.0,
        purpose=Purpose.EMERGENCY_RESPONSE,
        sensor_type="wifi_access_point",
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


@pytest.fixture
def context():
    return EvaluationContext(spatial=build_simple_building("b", 2, 4))


@pytest.fixture
def policy():
    return BuildingPolicy(
        policy_id="p1",
        name="Test policy",
        description="d",
        categories=(DataCategory.LOCATION,),
        sensor_types=("wifi_access_point",),
        space_ids=("b",),
        phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
        purposes=(Purpose.EMERGENCY_RESPONSE,),
        retention=Duration.parse("P6M"),
    )


class TestValidation:
    def test_empty_id_rejected(self):
        with pytest.raises(PolicyError):
            BuildingPolicy(policy_id="", name="n", description="d")

    def test_no_phases_rejected(self):
        with pytest.raises(PolicyError):
            BuildingPolicy(policy_id="p", name="n", description="d", phases=())

    def test_actuation_requires_settings(self):
        with pytest.raises(PolicyError):
            ActuationRule(sensor_type="hvac_unit", settings={})


class TestAppliesTo:
    def test_full_match(self, policy, context):
        assert policy.applies_to(request(), context)

    def test_phase_mismatch(self, policy, context):
        assert not policy.applies_to(request(phase=DecisionPhase.SHARING), context)

    def test_category_mismatch(self, policy, context):
        assert not policy.applies_to(
            request(category=DataCategory.ENERGY_USE), context
        )

    def test_sensor_type_mismatch(self, policy, context):
        assert not policy.applies_to(request(sensor_type="camera"), context)

    def test_purpose_mismatch(self, policy, context):
        assert not policy.applies_to(request(purpose=Purpose.MARKETING), context)

    def test_spatial_containment(self, policy, context):
        assert policy.applies_to(request(space_id="b-2003"), context)

    def test_unlocated_request_fails_spatial_selector(self, policy, context):
        assert not policy.applies_to(request(space_id=None), context)

    def test_wildcard_selectors_match_anything(self, context):
        wildcard = BuildingPolicy(policy_id="w", name="n", description="d")
        assert wildcard.applies_to(request(), context)
        assert wildcard.applies_to(
            request(category=DataCategory.ENERGY_USE, sensor_type=None, purpose=None),
            context,
        )

    def test_condition_gates_match(self, context):
        gated = BuildingPolicy(
            policy_id="g",
            name="n",
            description="d",
            condition=TemporalCondition(start_hour=9, end_hour=17),
        )
        assert gated.applies_to(request(timestamp=12 * 3600.0), context)
        assert not gated.applies_to(request(timestamp=20 * 3600.0), context)

    def test_space_match_without_model_uses_ids(self, policy):
        bare = EvaluationContext()
        assert policy.applies_to(request(space_id="b"), bare)
        assert not policy.applies_to(request(space_id="elsewhere"), bare)


class TestIntrospection:
    def test_collects_personal_data(self, policy):
        assert policy.collects_personal_data

    def test_energy_only_policy_not_personal(self):
        policy = BuildingPolicy(
            policy_id="e",
            name="n",
            description="d",
            categories=(DataCategory.ENERGY_USE, DataCategory.TEMPERATURE),
        )
        assert not policy.collects_personal_data

    def test_deny_policy_not_personal_collection(self, policy):
        denying = BuildingPolicy(
            policy_id="d",
            name="n",
            description="d",
            effect=Effect.DENY,
            categories=(DataCategory.LOCATION,),
        )
        assert not denying.collects_personal_data

    def test_retention_seconds(self, policy):
        assert policy.retention_seconds() == 6 * 30 * 86400
        unlimited = BuildingPolicy(policy_id="u", name="n", description="d")
        assert unlimited.retention_seconds() is None

    def test_str(self, policy):
        assert "p1" in str(policy)
