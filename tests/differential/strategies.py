"""Strategies for the differential suite.

Builds on :mod:`tests.property.strategies` (the shared rule/request
generators) and adds the *mutation* vocabulary: a differential run is a
stream of steps, each either a request to decide or a store mutation
that must invalidate exactly the right compiled shards.
"""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, RequesterKind
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.sensors.base import Observation
from tests.property.strategies import (
    SENSOR_TYPES,
    SPACES,
    USERS,
    conditions,
    policies as plain_policies,
    preferences as plain_preferences,
    requests,
)

strategies = st.sampled_from(list(ResolutionStrategy))

#: Rules with a condition attached (including TemporalCondition, which
#: makes matching requests uncacheable, and ProfileCondition, which is
#: compiled but context-dependent) mixed with unconditioned ones.
policies = st.one_of(
    plain_policies,
    st.builds(
        lambda policy, condition: dataclasses.replace(
            policy, condition=condition
        ),
        plain_policies,
        conditions,
    ),
)
preferences = st.one_of(
    plain_preferences,
    st.builds(
        lambda preference, condition: dataclasses.replace(
            preference, condition=condition
        ),
        plain_preferences,
        conditions,
    ),
)

#: Requests whose subjects are always concrete users, so preference
#: mutations have someone to hit.
subject_requests = requests.filter(lambda r: r.subject_id is not None)


def _mk_request(request):
    return ("request", request)


def _mk_add_preference(preference):
    return ("add_preference", preference)


def _mk_withdraw(user_id):
    return ("withdraw_user", user_id)


def _mk_add_policy(policy):
    return ("add_policy", policy)


def _mk_remove_policy(index):
    # Resolved against the pair's live policy ids at apply time.
    return ("remove_policy", index)


#: The store mutations a differential run interleaves with its inputs.
_mutations = (
    preferences.map(_mk_add_preference),
    st.sampled_from(USERS).map(_mk_withdraw),
    policies.map(_mk_add_policy),
    st.integers(0, 7).map(_mk_remove_policy),
)

#: One step of a differential run.  Requests dominate (the point is to
#: exercise warm compiled rows), with mutations sprinkled in so rows go
#: stale mid-stream.
steps = st.one_of(
    requests.map(_mk_request),
    requests.map(_mk_request),
    requests.map(_mk_request),
    *_mutations,
)

runs = st.lists(steps, min_size=1, max_size=40)

#: Capture-path readings: mapped and unmapped sensor types, and subject-
#: or space-less ones.  A run draws a few and enforces them repeatedly,
#: each time at a step's own timestamp.
observations = st.builds(
    Observation,
    observation_id=st.integers(1, 10**6),
    sensor_id=st.sampled_from(["s-1", "s-2"]),
    # Half wifi, which the paper's emergency-location policy captures.
    sensor_type=st.one_of(
        st.just("wifi_access_point"),
        st.sampled_from(SENSOR_TYPES + ["power_meter", "co2_sensor"]),
    ),
    timestamp=st.just(0.0),
    space_id=st.one_of(st.none(), st.sampled_from(SPACES)),
    payload=st.just({"mac": "aa:bb", "rssi": -61.5}),
    subject_id=st.one_of(st.none(), st.sampled_from(USERS)),
)

#: Float, int, zero and negative timestamps (a negative one makes
#: ``DataRequest`` raise).
observation_timestamps = st.one_of(
    st.floats(-1e3, 1e7, allow_nan=False),
    st.integers(-10, 10**7),
    st.sampled_from([0, 0.0, -0.0, -1.0]),
)


def _mk_observe(index_phase_timestamp):
    return ("observe", index_phase_timestamp)


def _observe():
    return st.tuples(
        st.integers(0, 3),
        st.sampled_from([DecisionPhase.CAPTURE, DecisionPhase.STORAGE]),
        observation_timestamps,
    ).map(_mk_observe)


#: Edits that turn a reading's capture request into a query-path
#: request differing from it in at most one key field, so the rows the
#: query path compiles sit next to (or on) the keys the lane probes.
REQUEST_EDITS = [
    {},
    {"requester_id": "svc-a"},
    {"requester_kind": RequesterKind.BUILDING_SERVICE},
    {"phase": DecisionPhase.SHARING},
    {"category": DataCategory.ACTIVITY},
    {"space_id": None},
    {"purpose": Purpose.MARKETING},
    {"granularity": GranularityLevel.COARSE},
]


def _mk_request_like(index_phase_timestamp_edit):
    return ("request_like", index_phase_timestamp_edit)


def _request_like():
    return st.tuples(
        st.integers(0, 3),
        st.sampled_from([DecisionPhase.CAPTURE, DecisionPhase.STORAGE]),
        st.floats(0.0, 1e7),
        st.sampled_from(REQUEST_EDITS),
    ).map(_mk_request_like)


#: A capture-path run: ``("observe", (index, phase, timestamp))`` steps
#: (``index`` picks a reading from the run's pool, modulo its size) in
#: both phases, interleaved with store mutations and with
#: ``("request_like", (index, phase, timestamp, edit))`` steps that
#: decide the reading's request after ``edit``.  Four in seven steps
#: observe (``one_of`` counts one strategy object once, hence separate
#: ones), and runs are long enough for rows to warm.
observation_runs = st.lists(
    st.one_of(
        *[_observe() for _ in range(8)],
        *[_request_like() for _ in range(2)],
        *_mutations,
    ),
    min_size=8,
    max_size=40,
)


#: Sharing-phase requests, the only phase the request manager asks.
sharing_requests = requests.map(
    lambda request: dataclasses.replace(request, phase=DecisionPhase.SHARING)
)

#: The notes the request manager attaches: none (the lane's case), a
#: brownout degradation, a roaming marker and a migration marker.
QUERY_NOTES = [
    (),
    ("brownout degraded response (level 1): granularity precise -> coarse",),
    ("roaming:c",),
    ("roaming:c", "migrating:b:c"),
]


def _mk_ask(index_timestamp_notes):
    return ("ask", index_timestamp_notes)


def _ask():
    return st.tuples(
        st.integers(0, 3),
        observation_timestamps,
        st.one_of(st.just(()), st.sampled_from(QUERY_NOTES)),
    ).map(_mk_ask)


#: A query-path run: ``("ask", (index, timestamp, notes))`` steps
#: (``index`` picks a request from the run's pool, modulo its size)
#: interleaved with store mutations.  Two in three steps ask, and half
#: the asks carry no notes, so rows warm and then meet noted asks,
#: negative timestamps and mutations that stale them.
query_runs = st.lists(
    st.one_of(*[_ask() for _ in range(8)], *_mutations),
    min_size=8,
    max_size=40,
)
