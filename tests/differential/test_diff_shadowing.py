"""Differential test: the P005 shadowed-rule lint vs the enforcement engine.

P005 claims an allowing policy can never take effect.  The oracle is
:meth:`EnforcementEngine.decide` itself: over a small universe (two
categories, two purposes, sensor types absent or one of two, spaces
absent or one of a building's nested spaces, four times of day) every
request a flagged policy applies to must be denied, under every
:class:`ResolutionStrategy`.  The linter and the engine share one
spatial model -- building ``b`` holds floor ``b-f1``, which holds rooms
``b-1001`` and ``b-1002`` -- and one more space id, ``annex``, lies
outside it, so matching by exact id stays under test too.

Hypothesis draws small policy sets over that universe with ``Always``
or ``TemporalCondition`` conditions and random priority and
``mandatory`` flags.  The ``@example`` cases pin the four shapes on
which P005 once disagreed with ``resolve()``; ``test_pinned_cases``
states the exact findings for each.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.policy_lint import PolicyLinter
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import Always, EvaluationContext, TemporalCondition
from repro.core.reasoner.index import PolicyIndex
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.spatial.model import build_simple_building

CATEGORIES = (DataCategory.LOCATION, DataCategory.PRESENCE)
PURPOSES = (Purpose.SECURITY, Purpose.RESEARCH)
SENSOR_TYPES = ("wifi_access_point", "camera")
SPATIAL = build_simple_building("b", 1, 2)
SPACES = ("b", "b-f1", "b-1001", "b-1002", "annex")
PHASES = (DecisionPhase.CAPTURE, DecisionPhase.SHARING)
#: Hour-of-day boundaries for temporal conditions, and one request hour
#: inside each of the windows they cut.
HOUR_MARKS = (0.0, 6.0, 12.0, 18.0, 24.0)
REQUEST_HOURS = (3.0, 9.0, 15.0, 21.0)


def _policy(
    policy_id, effect, categories=(), purposes=(), sensor_types=(),
    space_ids=(), phases=PHASES, condition=None, priority=0, mandatory=False,
    granularity=GranularityLevel.PRECISE,
):
    return BuildingPolicy(
        policy_id=policy_id,
        name=policy_id,
        description="generated",
        effect=effect,
        categories=tuple(categories),
        purposes=tuple(purposes),
        sensor_types=tuple(sensor_types),
        space_ids=tuple(space_ids),
        phases=tuple(phases),
        condition=condition if condition is not None else Always(),
        priority=priority,
        mandatory=mandatory,
        granularity=granularity,
    )


def _selector(values):
    return st.lists(st.sampled_from(values), max_size=len(values), unique=True)


def _none_or_one(values):
    return st.one_of(st.just(()), st.sampled_from(values).map(lambda v: (v,)))


conditions = st.one_of(
    st.just(Always()),
    st.builds(
        TemporalCondition,
        start_hour=st.sampled_from(HOUR_MARKS),
        end_hour=st.sampled_from(HOUR_MARKS),
    ),
)


@st.composite
def drawn_policies(draw, policy_id):
    return _policy(
        policy_id,
        draw(st.sampled_from(list(Effect))),
        categories=draw(_selector(CATEGORIES)),
        purposes=draw(_selector(PURPOSES)),
        sensor_types=draw(_none_or_one(SENSOR_TYPES)),
        space_ids=draw(_none_or_one(SPACES)),
        phases=draw(st.lists(st.sampled_from(PHASES), min_size=1, unique=True)),
        condition=draw(conditions),
        priority=draw(st.integers(-5, 5)),
        mandatory=draw(st.booleans()),
        granularity=draw(st.sampled_from(list(GranularityLevel))),
    )


@st.composite
def policy_sets(draw):
    """One to three drawn policies, plus (three times in four) a deny
    widened from one of them, so covering pairs are common.  The deny
    keeps or drops the base's space, or moves it to a space that
    encloses it or lies inside it."""
    count = draw(st.integers(1, 3))
    policies = [draw(drawn_policies("p%d" % index)) for index in range(count)]
    if draw(st.integers(0, 3)) > 0:
        base = draw(st.sampled_from(policies))

        def keep(values):
            return values if draw(st.booleans()) else ()

        policies.append(dataclasses.replace(
            base,
            policy_id="widened",
            effect=Effect.DENY,
            categories=keep(base.categories),
            purposes=keep(base.purposes),
            sensor_types=keep(base.sensor_types),
            space_ids=draw(st.sampled_from([(), base.space_ids] + [
                (other,)
                for space in base.space_ids if space in SPATIAL
                for other in SPACES
                if other != space and other in SPATIAL
                and (SPATIAL.contains(other, space)
                     or SPATIAL.contains(space, other))
            ])),
            phases=draw(st.sampled_from([base.phases, PHASES])),
            condition=draw(conditions),
            priority=draw(st.integers(-5, 5)),
            mandatory=draw(st.booleans()),
        ))
    return policies


UNIVERSE = [
    DataRequest(
        requester_id="svc-a",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=phase,
        category=category,
        subject_id="mary",
        space_id=space_id,
        timestamp=hour * 3600.0,
        purpose=purpose,
        granularity=GranularityLevel.PRECISE,
        sensor_type=sensor_type,
    )
    for phase, category, purpose, sensor_type, space_id, hour in itertools.product(
        PHASES,
        CATEGORIES,
        (None,) + PURPOSES,
        (None,) + SENSOR_TYPES,
        (None,) + SPACES,
        REQUEST_HOURS,
    )
]

#: The four shapes P005 used to get wrong on SHARING/LOCATION requests.
ALLOW_ALL_OVER_DENY_LOC = [
    _policy("allow-all", Effect.ALLOW, priority=5),
    _policy("deny-loc", Effect.DENY, categories=(DataCategory.LOCATION,)),
]
DENY_ALL_UNDER_ALLOW_LOC = [
    _policy("deny-all", Effect.DENY),
    _policy("allow-loc", Effect.ALLOW, categories=(DataCategory.LOCATION,), priority=5),
]
DENY_ALL_VS_MANDATORY_ALLOW_LOC = [
    _policy("deny-all", Effect.DENY),
    _policy(
        "allow-loc", Effect.ALLOW, categories=(DataCategory.LOCATION,), mandatory=True
    ),
]
DENY_BUILDING_OVER_ALLOW_ROOM = [
    _policy(
        "deny-building", Effect.DENY, categories=(DataCategory.LOCATION,),
        space_ids=("b",),
    ),
    _policy(
        "allow-room", Effect.ALLOW, categories=(DataCategory.LOCATION,),
        space_ids=("b-1001",),
    ),
]


def _shadowed(policies):
    findings = PolicyLinter(spatial=SPATIAL).lint_policies(policies)
    return [f.subject for f in findings if f.rule_id == "P005"]


@given(policies=policy_sets())
@example(policies=ALLOW_ALL_OVER_DENY_LOC)
@example(policies=DENY_ALL_UNDER_ALLOW_LOC)
@example(policies=DENY_ALL_VS_MANDATORY_ALLOW_LOC)
@example(policies=DENY_BUILDING_OVER_ALLOW_ROOM)
def test_every_shadowed_policy_is_dead(policies):
    """Each P005 subject is an ALLOW that no request in the universe
    gets past, whichever strategy resolves it."""
    shadowed = _shadowed(policies)
    if not shadowed:
        return
    by_id = {policy.policy_id: policy for policy in policies}
    context = EvaluationContext(spatial=SPATIAL)
    engines = []
    for strategy in ResolutionStrategy:
        store = PolicyIndex()
        for policy in policies:
            store.add_policy(policy)
        engines.append(EnforcementEngine(store, context, strategy))
    for policy_id in shadowed:
        policy = by_id[policy_id]
        assert policy.effect is Effect.ALLOW, policy_id
        for request in UNIVERSE:
            if not policy.applies_to(request, context):
                continue
            for engine in engines:
                decision = engine.decide(request)
                assert not decision.allowed, (policy_id, engine.strategy, request)


@pytest.mark.parametrize(
    "policies,expected",
    [
        (ALLOW_ALL_OVER_DENY_LOC, []),
        (DENY_ALL_UNDER_ALLOW_LOC, ["allow-loc"]),
        (DENY_ALL_VS_MANDATORY_ALLOW_LOC, ["allow-loc"]),
        (DENY_BUILDING_OVER_ALLOW_ROOM, ["allow-room"]),
    ],
    ids=[
        "allow-all-over-deny-loc", "deny-all-under-allow-loc",
        "mandatory-allow-loc", "deny-building-over-allow-room",
    ],
)
def test_pinned_cases(policies, expected):
    assert _shadowed(policies) == expected
