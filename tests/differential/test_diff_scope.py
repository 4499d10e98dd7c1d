"""Differential test: the scope algebra against brute force over ``admits``.

:class:`~repro.core.policy.scope.Scope` answers three static questions
about two rules -- ``covers``, ``overlaps`` and ``key`` -- and
``detect_conflicts`` builds on ``overlaps``.  The oracle is
``Scope.admits`` (``applies_to``, for conflicts) run on every request
of a finite universe:

- ``a.covers(b)`` holds exactly when every request ``b`` admits, ``a``
  admits too;
- ``a.overlaps(b)`` holds exactly when some request is admitted by both;
- ``a.key() == b.key()`` holds exactly when each covers the other;
- over ``Always`` conditions, ``detect_conflicts`` reports a pair
  exactly when some request lies in both rules and ``_classify``
  disagrees -- sound, and each report backed by a witness request.

The universe is ``test_diff_shadowing``'s: building ``b`` holds floor
``b-f1``, which holds rooms ``b-1001`` and ``b-1002`` (and a corridor
no rule names), and ``annex`` lies outside the model.  One more space,
zone ``b-zone`` inside ``b-f1``, has a footprint that overlaps both
rooms without containing either: a request names one space, so a zone
rule and a room rule share no request, whatever the footprints say.
Requests also take one value per selector that no generated rule names
(a third phase and category, an unknown requester id and kind, no
purpose, no sensor type, no subject, no space), so a selector that
lists every named value is never mistaken for a wildcard.

Hypothesis draws pairs of rules, building policies and user
preferences alike; half the time the second is a variant of the first
(up to two scope fields widened or redrawn, perhaps a space inside a
listed one added), so covering pairs and equal scopes are common.  The
``@example`` cases pin the two shapes the linter and conflict detection
once got wrong.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import example, given, strategies as st

from repro.core.language.vocabulary import DataCategory, GranularityLevel
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.conflicts import _classify, detect_conflicts
from repro.spatial.geometry import Box
from repro.spatial.model import SpaceType, build_simple_building
from tests.differential.test_diff_shadowing import (
    CATEGORIES,
    PHASES,
    PURPOSES,
    SENSOR_TYPES,
    SPACES as SHADOWING_SPACES,
)

SPATIAL = build_simple_building("b", 1, 2)
SPATIAL.add(
    "b-zone", "Zone", SpaceType.ZONE, parent_id="b-f1",
    footprint=Box(0.0, 6.0, 40.0, 24.0),
)
SPACES = SHADOWING_SPACES + ("b-zone",)
REQUESTER_IDS = ("svc-a", "svc-b")
REQUESTER_KINDS = (RequesterKind.THIRD_PARTY_SERVICE,)
USERS = ("mary", "bob")
CONTEXT = EvaluationContext(spatial=SPATIAL)

UNIVERSE = [
    DataRequest(
        requester_id=requester_id,
        requester_kind=requester_kind,
        phase=phase,
        category=category,
        subject_id=subject_id,
        space_id=space_id,
        timestamp=0.0,
        purpose=purpose,
        sensor_type=sensor_type,
    )
    for (
        phase, category, purpose, sensor_type, space_id,
        requester_id, requester_kind, subject_id,
    ) in itertools.product(
        PHASES + (DecisionPhase.STORAGE,),
        CATEGORIES + (DataCategory.TEMPERATURE,),
        PURPOSES + (None,),
        SENSOR_TYPES + (None,),
        SPACES + ("b-f1-corridor", None),
        REQUESTER_IDS + ("svc-unnamed",),
        REQUESTER_KINDS + (RequesterKind.EXTERNAL,),
        USERS + (None,),
    )
]

_admitted_by_scope = {}


def _admitted(rule):
    """Indices of the universe's requests in ``rule``'s scope."""
    scope = rule.scope
    if scope not in _admitted_by_scope:
        _admitted_by_scope[scope] = frozenset(
            index for index, request in enumerate(UNIVERSE)
            if scope.admits(request, SPATIAL)
        )
    return _admitted_by_scope[scope]


def _selector(values):
    return st.lists(st.sampled_from(values), max_size=len(values), unique=True).map(tuple)


_phases = st.lists(st.sampled_from(PHASES), min_size=1, unique=True).map(tuple)
_spaces = st.lists(st.sampled_from(SPACES), max_size=2, unique=True).map(tuple)

#: Each rule class's scope fields, and how to draw a fresh value for one.
_FIELDS = {
    BuildingPolicy: {
        "phases": _phases,
        "categories": _selector(CATEGORIES),
        "purposes": _selector(PURPOSES),
        "sensor_types": _selector(SENSOR_TYPES),
        "space_ids": _spaces,
    },
    UserPreference: {
        "phases": _phases,
        "categories": _selector(CATEGORIES),
        "purposes": _selector(PURPOSES),
        "requester_ids": _selector(REQUESTER_IDS),
        "requester_kinds": _selector(REQUESTER_KINDS),
        "space_ids": _spaces,
        "user_id": st.sampled_from(USERS),
    },
}


def _policy(policy_id, effect=Effect.ALLOW, **fields):
    fields.setdefault("phases", PHASES)
    return BuildingPolicy(
        policy_id=policy_id, name=policy_id, description="generated",
        effect=effect, **fields,
    )


def _preference(preference_id, effect=Effect.DENY, **fields):
    fields.setdefault("phases", PHASES)
    fields.setdefault("user_id", "mary")
    return UserPreference(
        preference_id=preference_id, description="generated", effect=effect,
        **fields,
    )


@st.composite
def rules(draw, rule_id, kind=None):
    if kind is None:
        kind = draw(st.sampled_from([BuildingPolicy, UserPreference]))
    fields = {name: draw(values) for name, values in _FIELDS[kind].items()}
    effect = draw(st.sampled_from(list(Effect)))
    granularity = draw(st.sampled_from(list(GranularityLevel)))
    if kind is BuildingPolicy:
        return _policy(
            rule_id, effect, granularity=granularity,
            mandatory=draw(st.booleans()), **fields,
        )
    return _preference(rule_id, effect, granularity_cap=granularity, **fields)


@st.composite
def variants(draw, rule, rule_id):
    """``rule`` with up to two scope fields widened or redrawn, and
    perhaps a space inside a listed one added."""
    fields = _FIELDS[type(rule)]
    changes = {}
    for name in draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)):
        if name in ("phases", "user_id") or draw(st.booleans()):
            changes[name] = draw(fields[name])
        else:
            changes[name] = ()
    spaces = changes.get("space_ids", rule.space_ids)
    inner = [
        space for space in SPACES if space not in spaces and space in SPATIAL
        and any(outer in SPATIAL and SPATIAL.contains(outer, space) for outer in spaces)
    ]
    if inner and draw(st.booleans()):
        changes["space_ids"] = spaces + (draw(st.sampled_from(inner)),)
    id_field = "policy_id" if isinstance(rule, BuildingPolicy) else "preference_id"
    changes[id_field] = rule_id
    return dataclasses.replace(rule, **changes)


@st.composite
def rule_pairs(draw):
    first = draw(rules("r1"))
    if draw(st.booleans()):
        return first, draw(variants(first, "r2"))
    return first, draw(rules("r2"))


#: The same requests, written two ways: b-1001 lies in b.  The key once
#: compared space ids as sets, and missed P006 on this pair.
BUILDING_VS_BUILDING_AND_ROOM = (
    _policy("allow-b", space_ids=("b",)),
    _policy("deny-b", Effect.DENY, space_ids=("b", "b-1001")),
)
#: No request lies in both the zone and the room, though their
#: footprints overlap.  Conflict detection once reported this pair.
ZONE_VS_ROOM = (
    _policy("allow-zone", space_ids=("b-zone",)),
    _preference("deny-room", space_ids=("b-1001",)),
)


@given(pair=rule_pairs())
@example(pair=BUILDING_VS_BUILDING_AND_ROOM)
@example(pair=ZONE_VS_ROOM)
def test_scope_algebra_matches_brute_force(pair):
    first, second = pair
    a, b = _admitted(first), _admitted(second)
    covers = first.scope.covers(second.scope, SPATIAL)
    assert covers == (b <= a), (first, second)
    assert second.scope.covers(first.scope, SPATIAL) == (a <= b), (first, second)
    assert first.scope.overlaps(second.scope, SPATIAL) == bool(a & b), (first, second)
    same_key = first.scope.key(SPATIAL) == second.scope.key(SPATIAL)
    assert same_key == (a == b), (first, second)


@given(
    policy=rules("policy", BuildingPolicy),
    preference=rules("preference", UserPreference),
)
@example(policy=ZONE_VS_ROOM[0], preference=ZONE_VS_ROOM[1])
def test_conflicts_have_witnesses_and_none_is_missed(policy, preference):
    witnessed = policy.effect is Effect.ALLOW and any(
        policy.applies_to(request, CONTEXT) and preference.applies_to(request, CONTEXT)
        for request in UNIVERSE
    )
    expected = _classify(policy, preference) if witnessed else None
    conflicts = detect_conflicts([policy], [preference], CONTEXT)
    assert conflicts == ([expected] if expected is not None else []), (
        policy, preference,
    )


def test_a_selector_listing_a_whole_vocabulary_is_the_wildcard():
    everything = _preference(
        "all", categories=tuple(DataCategory), requester_kinds=tuple(RequesterKind)
    )
    assert everything.scope.key(SPATIAL) == _preference("any").scope.key(SPATIAL)
