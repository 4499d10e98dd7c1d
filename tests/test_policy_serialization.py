"""Unit tests for wire serialization of preferences and requests."""

import json

import pytest

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import (
    AllOf,
    Always,
    AnyOf,
    Condition,
    Not,
    ProfileCondition,
    TemporalCondition,
)
from repro.core.policy.preference import UserPreference
from repro.core.policy.serialization import (
    condition_from_dict,
    condition_to_dict,
    preference_from_dict,
    preference_to_dict,
)
from repro.errors import PolicyError


class TestConditionSerialization:
    @pytest.mark.parametrize(
        "condition",
        [
            Always(),
            AllOf(()),
            AnyOf(()),
            TemporalCondition(start_hour=18, end_hour=8),
            TemporalCondition(start_hour=9, end_hour=17, weekdays_only=True),
            ProfileCondition("faculty"),
            Not(TemporalCondition(start_hour=0, end_hour=6)),
            Not(ProfileCondition("staff")),
            AllOf((ProfileCondition("faculty"), TemporalCondition(9, 17))),
            AnyOf((ProfileCondition("a"), ProfileCondition("b"))),
        ],
    )
    def test_round_trip(self, condition):
        assert condition_from_dict(condition_to_dict(condition)) == condition

    def test_json_compatible(self):
        condition = AllOf((ProfileCondition("faculty"), Not(TemporalCondition(9, 17))))
        text = json.dumps(condition_to_dict(condition))
        assert condition_from_dict(json.loads(text)) == condition

    def test_unknown_kind_rejected(self):
        with pytest.raises(PolicyError):
            condition_from_dict({"kind": "quantum"})

    def test_only_when_kinds_decode(self):
        """A condition says when, never which requests: the kinds that
        restated a selector (``spatial``, ``subject``) are not decoded."""
        decodable = {"always", "temporal", "profile", "all", "any", "not"}
        bodies = {
            "temporal": {"start_hour": 1, "end_hour": 2},
            "profile": {"group": "faculty"},
            "all": {"conditions": []},
            "any": {"conditions": []},
            "not": {"condition": {"kind": "always"}},
        }
        for kind in decodable:
            condition_from_dict(dict(bodies.get(kind, {}), kind=kind))
        for retired in (
            {"kind": "spatial", "space_id": "b"},
            {"kind": "subject", "subject_id": "mary"},
        ):
            with pytest.raises(PolicyError, match="unknown condition kind"):
                condition_from_dict(retired)

    @pytest.mark.parametrize(
        "data",
        [
            None,
            7,
            "always",
            [],
            {"kind": "all", "conditions": 5},
            {"kind": "any", "conditions": "ab"},
            {"kind": "all", "conditions": [None]},
            {"kind": "not"},
            {"kind": "temporal", "start_hour": "9", "end_hour": 17},
            {"kind": "temporal", "start_hour": True, "end_hour": 17},
            {"kind": "temporal", "start_hour": 9, "end_hour": 17, "weekdays_only": 1},
            {"kind": "profile"},
            {"kind": "profile", "group": ["faculty"]},
        ],
    )
    def test_malformed_condition_is_policy_error(self, data):
        with pytest.raises(PolicyError):
            condition_from_dict(data)

    def test_custom_condition_not_serializable(self):
        class Weird(Condition):
            def matches(self, request, context):
                return True

        with pytest.raises(PolicyError):
            condition_to_dict(Weird())


class TestPreferenceSerialization:
    def full_preference(self) -> UserPreference:
        return UserPreference(
            preference_id="p1",
            user_id="mary",
            description="after hours",
            effect=Effect.DENY,
            categories=(DataCategory.OCCUPANCY, DataCategory.PRESENCE),
            phases=(DecisionPhase.SHARING,),
            requester_ids=("concierge",),
            requester_kinds=(RequesterKind.THIRD_PARTY_SERVICE,),
            purposes=(Purpose.PROVIDING_SERVICE,),
            space_ids=("b-1001",),
            granularity_cap=GranularityLevel.COARSE,
            condition=TemporalCondition(start_hour=18, end_hour=8),
            strength=0.8,
        )

    def test_round_trip(self):
        preference = self.full_preference()
        assert preference_from_dict(preference_to_dict(preference)) == preference

    def test_round_trip_through_json(self):
        preference = self.full_preference()
        text = json.dumps(preference_to_dict(preference))
        assert preference_from_dict(json.loads(text)) == preference

    def test_malformed_payload_rejected(self):
        with pytest.raises(PolicyError):
            preference_from_dict({"preference_id": "p"})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("condition", {"kind": "all", "conditions": 5}),
            ("condition", None),
            ("condition", 7),
            ("strength", "x"),
            ("strength", True),
            ("strength", float("nan")),
            ("preference_id", 5),
            ("description", None),
            ("categories", "location"),
            ("categories", [["location"]]),
            ("phases", None),
            ("requester_ids", "concierge"),
            ("space_ids", [1001]),
            ("granularity_cap", 3),
        ],
    )
    def test_malformed_field_is_policy_error(self, field, value):
        data = preference_to_dict(self.full_preference())
        data[field] = value
        with pytest.raises(PolicyError):
            preference_from_dict(data)

    @pytest.mark.parametrize("data", [None, 7, "p1", [], [["preference_id", "p"]]])
    def test_non_object_payload_is_policy_error(self, data):
        with pytest.raises(PolicyError):
            preference_from_dict(data)

    def test_bad_enum_value_rejected(self):
        data = preference_to_dict(self.full_preference())
        data["effect"] = "maybe"
        with pytest.raises(PolicyError):
            preference_from_dict(data)

    def test_defaults_filled(self):
        minimal = {
            "preference_id": "p",
            "user_id": "u",
            "effect": "deny",
            "phases": ["sharing"],
        }
        preference = preference_from_dict(minimal)
        assert preference.granularity_cap is GranularityLevel.PRECISE
        assert preference.condition == Always()
