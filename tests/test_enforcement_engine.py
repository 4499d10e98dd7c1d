"""Unit tests for the enforcement engine."""

import pytest

from repro.core.enforcement.engine import EnforcementEngine, request_from_key
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.sensors.base import Observation
from repro.spatial.model import build_simple_building


@pytest.fixture
def engine():
    spatial = build_simple_building("b", 2, 4)
    engine = EnforcementEngine(context=EvaluationContext(spatial=spatial))
    engine.store.add_policy(catalog.policy_2_emergency_location("b"))
    engine.store.add_policy(catalog.policy_service_sharing("b"))
    return engine


def sharing_request(**overrides):
    defaults = dict(
        requester_id="concierge",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="b-1001",
        timestamp=100.0,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


def wifi_observation(space="b-1001", subject="mary"):
    return Observation.create(
        sensor_id="ap-1",
        sensor_type="wifi_access_point",
        timestamp=50.0,
        space_id=space,
        payload={"device_mac": "aa:bb", "ap_mac": "x", "rssi": -40.0},
        subject_id=subject,
    )


class TestDecide:
    def test_allowed_by_sharing_policy(self, engine):
        decision = engine.decide(sharing_request())
        assert decision.allowed
        assert decision.granularity is GranularityLevel.PRECISE

    def test_denied_without_policy(self, engine):
        decision = engine.decide(
            sharing_request(category=DataCategory.SOCIAL_TIES)
        )
        assert not decision.allowed

    def test_preference_denies(self, engine):
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        assert not engine.decide(sharing_request()).allowed

    def test_preference_only_affects_its_user(self, engine):
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        assert engine.decide(sharing_request(subject_id="bob")).allowed

    def test_strategy_changes_outcome(self):
        spatial = build_simple_building("b", 2, 4)
        engine = EnforcementEngine(
            context=EvaluationContext(spatial=spatial),
            strategy=ResolutionStrategy.BUILDING_WINS,
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        decision = engine.decide(sharing_request())
        assert decision.allowed
        assert decision.resolution.notify_user

    def test_every_decision_audited(self, engine):
        before = len(engine.audit)
        engine.decide(sharing_request())
        engine.decide(sharing_request(subject_id="bob"))
        assert len(engine.audit) == before + 2


class TestObservationEnforcement:
    def test_request_for_observation_maps_category(self, engine):
        observation = wifi_observation()
        request = request_from_key(
            engine.observation_key(observation, DecisionPhase.CAPTURE),
            observation.timestamp,
        )
        assert request.category is DataCategory.LOCATION
        assert request.purpose is Purpose.EMERGENCY_RESPONSE
        assert request.sensor_type == "wifi_access_point"
        assert request.requester_kind is RequesterKind.BUILDING

    def test_authorized_observation_stored_verbatim(self, engine):
        obs = wifi_observation()
        out = engine.enforce_observation(obs, DecisionPhase.CAPTURE)
        assert out is obs

    def test_unauthorized_sensor_dropped(self, engine):
        camera_obs = Observation.create(
            "cam-1", "camera", 1.0, "b-f1-corridor", {"frame_ref": "f", "motion_score": 0.1, "faces_detected": 0}
        )
        assert engine.enforce_observation(camera_obs, DecisionPhase.CAPTURE) is None

    def test_preference_degrades_capture(self, engine):
        engine.store.add_preference(
            UserPreference(
                preference_id="cap",
                user_id="mary",
                description="floor only",
                effect=Effect.ALLOW,
                categories=(DataCategory.LOCATION,),
                phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
                granularity_cap=GranularityLevel.COARSE,
            )
        )
        # The mandatory emergency policy would override; test against a
        # negotiable deployment instead.
        engine.store.remove_policy("policy-2-emergency")
        engine.store.add_policy(
            BuildingPolicy(
                policy_id="wifi-log",
                name="wifi",
                description="d",
                categories=(DataCategory.LOCATION,),
                sensor_types=("wifi_access_point",),
                phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
                purposes=(Purpose.EMERGENCY_RESPONSE,),
            )
        )
        out = engine.enforce_observation(wifi_observation(), DecisionPhase.CAPTURE)
        assert out is not None
        assert out.space_id == "b-f1", "coarsened to the floor"

    def test_mandatory_policy_overrides_capture_optout(self, engine):
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        out = engine.enforce_observation(wifi_observation(), DecisionPhase.CAPTURE)
        assert out is not None, "mandatory emergency collection prevails"
        record = list(engine.audit)[-1]
        assert record.notify_user, "but the user must be notified"

    def test_unknown_sensor_type_conservative_category(self, engine):
        odd = Observation.create("x", "novel_sensor", 0.0, "b-1001", {})
        request = request_from_key(
            engine.observation_key(odd, DecisionPhase.CAPTURE), odd.timestamp
        )
        assert request.category is DataCategory.ACTIVITY
