"""Property tests: conflict detection is sound (no missed conflicts).

Static detection over-approximates; what it must never do is *miss* a
conflict: whenever a concrete request shows an allowing policy and an
objecting (or capping) preference both in force, the static pass must
have flagged that pair.
"""

from hypothesis import given, settings

from repro.core.policy.base import Effect
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.serialization import (
    preference_from_dict,
    preference_to_dict,
)
from repro.core.reasoner.conflicts import detect_conflicts
from repro.spatial.model import build_simple_building
from tests.property.strategies import policies, preferences, requests

_SPATIAL = build_simple_building("b", floors=2, rooms_per_floor=4)


@settings(max_examples=200, deadline=None)
@given(policy=policies, preference=preferences, request=requests)
def test_no_missed_conflicts(policy, preference, request):
    context = EvaluationContext(spatial=_SPATIAL)
    if policy.effect is not Effect.ALLOW:
        return
    if not (
        policy.applies_to(request, context)
        and preference.applies_to(request, context)
    ):
        return
    disagree = preference.is_opt_out or (
        policy.granularity.rank > preference.granularity_cap.rank
    )
    if disagree:
        conflicts = detect_conflicts([policy], [preference], context)
        assert conflicts, (
            "request-level disagreement not statically detected: %r vs %r"
            % (policy.policy_id, preference.preference_id)
        )


@settings(max_examples=200, deadline=None)
@given(preference=preferences)
def test_preference_wire_round_trip(preference):
    assert preference_from_dict(preference_to_dict(preference)) == preference


@settings(max_examples=100, deadline=None)
@given(preference=preferences, request=requests)
def test_wire_round_trip_preserves_semantics(preference, request):
    """A preference behaves identically after crossing the wire."""
    context = EvaluationContext(spatial=_SPATIAL)
    restored = preference_from_dict(preference_to_dict(preference))
    assert restored.applies_to(request, context) == preference.applies_to(
        request, context
    )
