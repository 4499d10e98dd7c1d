"""Property test: decision caching in the compiled engine is unobservable.

For any rule set (including time-sensitive temporal conditions), any
request stream (including repeats at different timestamps), and any
interleaved rule mutation, the compiled engine must produce exactly the
decisions the reference interpreter produces.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.policy.conditions import EvaluationContext
from repro.core.reasoner.index import PolicyIndex
from repro.spatial.model import build_simple_building
from tests.property.strategies import (
    conditions,
    policies,
    preferences,
    requests,
)

_SPATIAL = build_simple_building("b", floors=2, rooms_per_floor=4)

conditioned_policies = st.builds(
    lambda policy, condition: dataclasses.replace(policy, condition=condition),
    policies,
    conditions,
)

conditioned_preferences = st.builds(
    lambda preference, condition: dataclasses.replace(preference, condition=condition),
    preferences,
    conditions,
)


def build_engines(policy_list, preference_list):
    plain_store, cached_store = PolicyIndex(), PolicyIndex()
    for policy in policy_list:
        plain_store.add_policy(policy)
        cached_store.add_policy(policy)
    for preference in preference_list:
        plain_store.add_preference(preference)
        cached_store.add_preference(preference)
    plain = EnforcementEngine(
        store=plain_store, context=EvaluationContext(spatial=_SPATIAL)
    )
    cached = CompiledEnforcementEngine(
        store=cached_store, context=EvaluationContext(spatial=_SPATIAL)
    )
    return plain, cached


@settings(max_examples=75, deadline=None)
@given(
    policy_list=st.lists(conditioned_policies, max_size=5),
    preference_list=st.lists(conditioned_preferences, max_size=5),
    request_list=st.lists(requests, min_size=1, max_size=10),
    timestamps=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=3, max_size=3),
)
def test_cached_equals_plain_with_repeats(
    policy_list, preference_list, request_list, timestamps
):
    plain, cached = build_engines(policy_list, preference_list)
    for request in request_list:
        for timestamp in timestamps:
            variant = dataclasses.replace(request, timestamp=timestamp)
            assert (
                cached.decide(variant).resolution == plain.decide(variant).resolution
            )
    # Audit trails are identical (every decision audited, hits included).
    assert cached.audit.records() == plain.audit.records()


@settings(max_examples=50, deadline=None)
@given(
    policy_list=st.lists(conditioned_policies, min_size=1, max_size=4),
    preference_list=st.lists(conditioned_preferences, max_size=4),
    extra=conditioned_preferences,
    request=requests,
)
def test_mutation_invalidates_cache(policy_list, preference_list, extra, request):
    plain, cached = build_engines(policy_list, preference_list)
    cached.decide(request)
    plain.decide(request)
    # Mutate both stores identically, then decide again.
    plain.store.add_preference(extra)
    cached.store.add_preference(extra)
    assert cached.decide(request).resolution == plain.decide(request).resolution
    plain.store.remove_policy(policy_list[0].policy_id)
    cached.store.remove_policy(policy_list[0].policy_id)
    assert cached.decide(request).resolution == plain.decide(request).resolution
