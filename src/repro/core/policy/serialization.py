"""Wire serialization of preferences and conditions.

The IoTA communicates preferences to TIPPERS over the message bus
(step 8 of Figure 1), so preferences need a JSON form.  Conditions
(temporal, profile, and their boolean combinations) serialize to a
tagged format; hand-written condition classes do not cross the wire
and raise :class:`PolicyError`.

Decoding checks the shape of every field: a payload that is not a
preference (a missing field, a string where a list belongs, an unknown
enum value, a non-numeric strength) raises :class:`PolicyError`, never
a bare ``TypeError``, so the bus answers it as an ``RpcError``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import (
    AllOf,
    AnyOf,
    Always,
    Condition,
    Not,
    ProfileCondition,
    TemporalCondition,
)
from repro.core.policy.preference import UserPreference
from repro.errors import PolicyError

_REQUIRED = object()
_NUMBER = (int, float)
_LIST = (list, tuple)


def _field(data: Dict[str, Any], key: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """``data[key]`` (``default`` when absent), which must be a ``kind``.
    A bool is not a number."""
    value = data.get(key, default)
    if value is _REQUIRED:
        raise PolicyError("missing field %r" % key)
    if isinstance(value, bool) and kind is not bool or not isinstance(value, kind):
        raise PolicyError("field %r has the wrong type: %r" % (key, value))
    return value


def _strings(data: Dict[str, Any], key: str, default: Any = ()) -> Tuple[str, ...]:
    values = _field(data, key, _LIST, default)
    if not all(isinstance(value, str) for value in values):
        raise PolicyError("field %r must list strings: %r" % (key, values))
    return tuple(values)


def _object(data: Any, what: str) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise PolicyError("%s must be an object, not %r" % (what, data))
    return data


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------
def condition_to_dict(condition: Condition) -> Dict[str, Any]:
    if isinstance(condition, Always):
        return {"kind": "always"}
    if isinstance(condition, TemporalCondition):
        return {
            "kind": "temporal",
            "start_hour": condition.start_hour,
            "end_hour": condition.end_hour,
            "weekdays_only": condition.weekdays_only,
        }
    if isinstance(condition, ProfileCondition):
        return {"kind": "profile", "group": condition.group}
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


def condition_from_dict(data: Any) -> Condition:
    kind = _object(data, "a condition").get("kind")
    if kind == "always":
        return Always()
    if kind == "temporal":
        return TemporalCondition(
            start_hour=_field(data, "start_hour", _NUMBER),
            end_hour=_field(data, "end_hour", _NUMBER),
            weekdays_only=_field(data, "weekdays_only", bool, False),
        )
    if kind == "profile":
        return ProfileCondition(group=_field(data, "group", str))
    if kind == "all":
        return AllOf(tuple(map(condition_from_dict, _field(data, "conditions", _LIST))))
    if kind == "any":
        return AnyOf(tuple(map(condition_from_dict, _field(data, "conditions", _LIST))))
    if kind == "not":
        return Not(condition_from_dict(data.get("condition")))
    raise PolicyError("unknown condition kind %r" % (kind,))


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


def preference_from_dict(data: Any) -> UserPreference:
    _object(data, "a preference")
    try:
        return UserPreference(
            preference_id=_field(data, "preference_id", str),
            user_id=_field(data, "user_id", str),
            description=_field(data, "description", str, ""),
            effect=Effect(_field(data, "effect", str)),
            categories=tuple(map(DataCategory, _strings(data, "categories"))),
            phases=tuple(map(DecisionPhase, _strings(data, "phases", _REQUIRED))),
            requester_ids=_strings(data, "requester_ids"),
            requester_kinds=tuple(map(RequesterKind, _strings(data, "requester_kinds"))),
            purposes=tuple(map(Purpose, _strings(data, "purposes"))),
            space_ids=_strings(data, "space_ids"),
            granularity_cap=GranularityLevel(
                _field(data, "granularity_cap", str, "precise")
            ),
            condition=condition_from_dict(data.get("condition", {"kind": "always"})),
            strength=_field(data, "strength", _NUMBER, 1.0),
        )
    except ValueError as exc:
        raise PolicyError("malformed preference payload: %s" % exc) from None
