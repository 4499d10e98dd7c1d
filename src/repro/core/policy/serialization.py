"""Wire serialization of preferences and conditions.

The IoTA communicates preferences to TIPPERS over the message bus
(step 8 of Figure 1), so preferences need a JSON form.  Structured
conditions (spatial, temporal, profile, and their boolean combinations)
serialize to a tagged format; exotic hand-written condition classes do
not cross the wire and raise :class:`PolicyError`.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import (
    AllOf,
    AnyOf,
    Always,
    Condition,
    Not,
    ProfileCondition,
    SpatialCondition,
    SubjectCondition,
    TemporalCondition,
)
from repro.core.policy.preference import UserPreference
from repro.errors import PolicyError


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------
def condition_to_dict(condition: Condition) -> Dict[str, Any]:
    if isinstance(condition, Always):
        return {"kind": "always"}
    if isinstance(condition, SpatialCondition):
        return {
            "kind": "spatial",
            "space_id": condition.space_id,
            "match_unlocated": condition.match_unlocated,
        }
    if isinstance(condition, TemporalCondition):
        return {
            "kind": "temporal",
            "start_hour": condition.start_hour,
            "end_hour": condition.end_hour,
            "weekdays_only": condition.weekdays_only,
        }
    if isinstance(condition, ProfileCondition):
        return {"kind": "profile", "group": condition.group}
    if isinstance(condition, SubjectCondition):
        return {"kind": "subject", "subject_id": condition.subject_id}
    if isinstance(condition, AllOf):
        return {
            "kind": "all",
            "conditions": [condition_to_dict(c) for c in condition.conditions],
        }
    if isinstance(condition, AnyOf):
        return {
            "kind": "any",
            "conditions": [condition_to_dict(c) for c in condition.conditions],
        }
    if isinstance(condition, Not):
        return {"kind": "not", "condition": condition_to_dict(condition.condition)}
    raise PolicyError(
        "condition %r is not wire-serializable" % type(condition).__name__
    )


def condition_from_dict(data: Dict[str, Any]) -> Condition:
    kind = data.get("kind")
    if kind == "always":
        return Always()
    if kind == "spatial":
        return SpatialCondition(
            space_id=data["space_id"],
            match_unlocated=data.get("match_unlocated", False),
        )
    if kind == "temporal":
        return TemporalCondition(
            start_hour=data["start_hour"],
            end_hour=data["end_hour"],
            weekdays_only=data.get("weekdays_only", False),
        )
    if kind == "profile":
        return ProfileCondition(group=data["group"])
    if kind == "subject":
        return SubjectCondition(subject_id=data["subject_id"])
    if kind == "all":
        return AllOf(tuple(condition_from_dict(c) for c in data["conditions"]))
    if kind == "any":
        return AnyOf(tuple(condition_from_dict(c) for c in data["conditions"]))
    if kind == "not":
        return Not(condition_from_dict(data["condition"]))
    raise PolicyError("unknown condition kind %r" % kind)


# ----------------------------------------------------------------------
# Preferences
# ----------------------------------------------------------------------
def preference_to_dict(preference: UserPreference) -> Dict[str, Any]:
    return {
        "preference_id": preference.preference_id,
        "user_id": preference.user_id,
        "description": preference.description,
        "effect": preference.effect.value,
        "categories": [c.value for c in preference.categories],
        "phases": [p.value for p in preference.phases],
        "requester_ids": list(preference.requester_ids),
        "requester_kinds": [k.value for k in preference.requester_kinds],
        "purposes": [p.value for p in preference.purposes],
        "space_ids": list(preference.space_ids),
        "granularity_cap": preference.granularity_cap.value,
        "condition": condition_to_dict(preference.condition),
        "strength": preference.strength,
    }


def preference_from_dict(data: Dict[str, Any]) -> UserPreference:
    try:
        return UserPreference(
            preference_id=data["preference_id"],
            user_id=data["user_id"],
            description=data.get("description", ""),
            effect=Effect(data["effect"]),
            categories=tuple(DataCategory(c) for c in data.get("categories", [])),
            phases=tuple(DecisionPhase(p) for p in data["phases"]),
            requester_ids=tuple(data.get("requester_ids", [])),
            requester_kinds=tuple(
                RequesterKind(k) for k in data.get("requester_kinds", [])
            ),
            purposes=tuple(Purpose(p) for p in data.get("purposes", [])),
            space_ids=tuple(data.get("space_ids", [])),
            granularity_cap=GranularityLevel(
                data.get("granularity_cap", "precise")
            ),
            condition=condition_from_dict(data.get("condition", {"kind": "always"})),
            strength=data.get("strength", 1.0),
        )
    except (KeyError, ValueError) as exc:
        raise PolicyError("malformed preference payload: %s" % exc) from None
