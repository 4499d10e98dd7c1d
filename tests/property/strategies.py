"""Shared hypothesis strategies for the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.language.duration import Duration
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import (
    AllOf,
    Always,
    Not,
    ProfileCondition,
    TemporalCondition,
)
from repro.core.policy.preference import UserPreference

USERS = ["mary", "bob", "carol", "dan"]
SPACES = ["b", "b-f1", "b-f2", "b-1001", "b-1002", "b-2001", "b-2002"]
SENSOR_TYPES = ["wifi_access_point", "bluetooth_beacon", "camera", "motion_sensor"]

categories = st.sampled_from(list(DataCategory))
purposes = st.sampled_from(list(Purpose))
granularities = st.sampled_from(list(GranularityLevel))
phases = st.sampled_from(list(DecisionPhase))
effects = st.sampled_from(list(Effect))
requester_kinds = st.sampled_from(list(RequesterKind))


def subset(values, max_size=3):
    """A possibly-empty selector tuple over ``values`` (empty = wildcard)."""
    return st.lists(st.sampled_from(values), max_size=max_size, unique=True).map(tuple)


durations = st.builds(
    Duration,
    years=st.integers(0, 3),
    months=st.integers(0, 24),
    weeks=st.integers(0, 10),
    days=st.integers(0, 400),
    hours=st.integers(0, 48),
    minutes=st.integers(0, 120),
    seconds=st.integers(0, 120),
)


requests = st.builds(
    DataRequest,
    requester_id=st.sampled_from(["svc-a", "svc-b", "building"]),
    requester_kind=requester_kinds,
    phase=phases,
    category=categories,
    subject_id=st.one_of(st.none(), st.sampled_from(USERS)),
    space_id=st.one_of(st.none(), st.sampled_from(SPACES)),
    timestamp=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    purpose=st.one_of(st.none(), purposes),
    granularity=granularities,
    sensor_type=st.one_of(st.none(), st.sampled_from(SENSOR_TYPES)),
)


_leaf_conditions = st.one_of(
    st.just(Always()),
    st.builds(ProfileCondition, group=st.sampled_from(["faculty", "staff", "grad-student"])),
    st.builds(
        TemporalCondition,
        start_hour=st.floats(0.0, 24.0, allow_nan=False),
        end_hour=st.floats(0.0, 24.0, allow_nan=False),
        weekdays_only=st.booleans(),
    ),
)

conditions = st.one_of(
    _leaf_conditions,
    st.builds(Not, _leaf_conditions),
    st.builds(lambda a, b: AllOf((a, b)), _leaf_conditions, _leaf_conditions),
)

_policy_counter = st.integers(0, 10_000)

policies = st.builds(
    BuildingPolicy,
    policy_id=st.uuids().map(lambda u: "p-%s" % u.hex[:8]),
    name=st.just("policy"),
    description=st.just("generated"),
    effect=effects,
    categories=subset(list(DataCategory)),
    sensor_types=subset(SENSOR_TYPES),
    space_ids=subset(SPACES, max_size=2),
    phases=st.lists(phases, min_size=1, max_size=4, unique=True).map(tuple),
    purposes=subset(list(Purpose)),
    granularity=granularities,
    retention=st.one_of(st.none(), durations),
    mandatory=st.booleans(),
    priority=st.integers(-5, 5),
)

preferences = st.builds(
    UserPreference,
    preference_id=st.uuids().map(lambda u: "f-%s" % u.hex[:8]),
    user_id=st.sampled_from(USERS),
    description=st.just("generated"),
    effect=effects,
    categories=subset(list(DataCategory)),
    phases=st.lists(phases, min_size=1, max_size=4, unique=True).map(tuple),
    requester_ids=subset(["svc-a", "svc-b", "building"], max_size=2),
    requester_kinds=subset(list(RequesterKind), max_size=2),
    purposes=subset(list(Purpose)),
    space_ids=subset(SPACES, max_size=2),
    granularity_cap=granularities,
    strength=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
