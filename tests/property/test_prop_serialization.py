"""Property tests: a preference payload off the wire decodes to a
:class:`UserPreference` or raises :class:`PolicyError`, nothing else.

The bus answers a ``PolicyError`` as an ``RpcError`` (and counts it in
``bus_rpc_errors_total``); any other exception would escape the
endpoint.  Payloads are arbitrary JSON values, valid preferences with
fields overwritten or dropped, and valid preferences whose condition
tree is replaced by arbitrary condition-shaped JSON.  Whatever decodes
must survive a round trip unchanged.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.core.policy.preference import UserPreference
from repro.core.policy.serialization import preference_from_dict, preference_to_dict
from repro.errors import PolicyError
from tests.property.strategies import conditions, preferences

FIELDS = [
    "preference_id", "user_id", "description", "effect", "categories", "phases",
    "requester_ids", "requester_kinds", "purposes", "space_ids",
    "granularity_cap", "condition", "strength",
]
CONDITION_KINDS = ["always", "temporal", "profile", "all", "any", "not", "spatial", "subject"]
CONDITION_FIELDS = [
    "kind", "start_hour", "end_hour", "weekdays_only", "group", "conditions", "condition",
]
#: Strings that mean something somewhere in a payload, so decoding
#: gets past its first check more often than random text would.
WORDS = sorted(
    {member.value for enum in (
        DataCategory, GranularityLevel, Purpose, DecisionPhase, Effect, RequesterKind
    ) for member in enum}
    | set(CONDITION_KINDS) | {"mary", "faculty", "b-1001"}
)

scalars = (
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats()
    | st.text(max_size=6) | st.sampled_from(WORDS)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(FIELDS + CONDITION_FIELDS) | st.text(max_size=4),
        children,
        max_size=4,
    ),
    max_leaves=12,
)

condition_shaped = st.recursive(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(CONDITION_KINDS)},
        optional={key: json_values for key in CONDITION_FIELDS[1:]},
    ),
    lambda children: st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["all", "any", "not"]),
            "conditions": st.lists(children, max_size=3) | json_values,
            "condition": children,
        }
    ),
    max_leaves=6,
)

valid_payloads = st.builds(
    lambda preference, condition: preference_to_dict(
        dataclasses.replace(preference, condition=condition)
    ),
    preferences,
    conditions,
)


def _mutate(payload, overrides, dropped):
    mutated = dict(payload, **overrides)
    for key in dropped:
        mutated.pop(key, None)
    return mutated


payloads = st.one_of(
    json_values,
    st.builds(
        _mutate,
        valid_payloads,
        st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=3),
        st.sets(st.sampled_from(FIELDS), max_size=2),
    ),
    st.builds(
        lambda payload, condition: dict(payload, condition=condition),
        valid_payloads,
        condition_shaped,
    ),
)


def _decode_or_refuse(payload):
    try:
        return preference_from_dict(payload)
    except PolicyError:
        return None


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_any_json_payload_decodes_or_raises_policy_error(payload):
    preference = _decode_or_refuse(payload)
    if preference is not None:
        assert isinstance(preference, UserPreference)
        assert preference_from_dict(preference_to_dict(preference)) == preference


@given(valid_payloads)
@settings(max_examples=100, deadline=None)
def test_every_valid_payload_decodes(payload):
    assert preference_to_dict(preference_from_dict(payload)) == payload
