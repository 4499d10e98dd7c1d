"""Property tests: privacy mechanisms."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.enforcement.mechanisms import (
    aggregate_counts,
    coarsen_space,
    degrade_observation,
    laplace_noise,
)
from repro.core.language.vocabulary import GranularityLevel
from repro.sensors.base import Observation
from repro.sensors.ontology import default_ontology
from repro.spatial.model import build_simple_building

_SPATIAL = build_simple_building("b", floors=3, rooms_per_floor=4)
_ONTOLOGY = default_ontology()
_SPACE_IDS = sorted(s.space_id for s in _SPATIAL)

granularities = st.sampled_from(list(GranularityLevel))

observations = st.builds(
    Observation.create,
    sensor_id=st.just("s1"),
    sensor_type=st.sampled_from(["wifi_access_point", "bluetooth_beacon", "camera"]),
    timestamp=st.floats(0, 1e6, allow_nan=False),
    space_id=st.one_of(st.none(), st.sampled_from(_SPACE_IDS)),
    payload=st.just({}),
    subject_id=st.one_of(st.none(), st.sampled_from(["mary", "bob"])),
)


class TestCoarsenSpace:
    @settings(max_examples=100)
    @given(space_id=st.sampled_from(_SPACE_IDS), level=granularities)
    def test_result_is_ancestor_or_hidden(self, space_id, level):
        out = coarsen_space(space_id, level, _SPATIAL)
        if out is not None:
            assert _SPATIAL.contains(out, space_id)

    @settings(max_examples=100)
    @given(space_id=st.sampled_from(_SPACE_IDS), level=granularities)
    def test_idempotent(self, space_id, level):
        once = coarsen_space(space_id, level, _SPATIAL)
        twice = coarsen_space(once, level, _SPATIAL)
        assert once == twice

    @settings(max_examples=100)
    @given(space_id=st.sampled_from(_SPACE_IDS))
    def test_monotone_in_level(self, space_id):
        """A coarser level never yields a strictly finer space."""
        order = [
            GranularityLevel.PRECISE,
            GranularityLevel.COARSE,
            GranularityLevel.BUILDING,
            GranularityLevel.NONE,
        ]
        previous_rank = None
        for level in order:
            out = coarsen_space(space_id, level, _SPATIAL)
            rank = (
                _SPATIAL.get(out).space_type.granularity_rank if out is not None else -1
            )
            if previous_rank is not None:
                assert rank <= previous_rank
            previous_rank = rank


class TestDegradeObservation:
    @settings(max_examples=100)
    @given(observation=observations, level=granularities)
    def test_identity_preserved(self, observation, level):
        out = degrade_observation(observation, level, _SPATIAL, _ONTOLOGY)
        if level is GranularityLevel.NONE:
            assert out is None
            return
        assert out is not None
        assert out.observation_id == observation.observation_id
        assert out.timestamp == observation.timestamp
        assert out.sensor_type == observation.sensor_type

    @settings(max_examples=100)
    @given(observation=observations, level=granularities)
    def test_never_reveals_more(self, observation, level):
        out = degrade_observation(observation, level, _SPATIAL, _ONTOLOGY)
        if out is None:
            return
        # Subject attribution never appears out of nowhere.
        if observation.subject_id is None:
            assert out.subject_id is None
        # Aggregate always strips attribution.
        if level is GranularityLevel.AGGREGATE:
            assert out.subject_id is None
        # Location never gets finer.
        if observation.space_id is None:
            assert out.space_id is None
        elif out.space_id is not None:
            assert _SPATIAL.contains(out.space_id, observation.space_id)

    @settings(max_examples=100)
    @given(observation=observations, level=granularities)
    def test_idempotent(self, observation, level):
        once = degrade_observation(observation, level, _SPATIAL, _ONTOLOGY)
        if once is None:
            return
        twice = degrade_observation(once, level, _SPATIAL, _ONTOLOGY)
        assert twice is not None
        assert twice.space_id == once.space_id
        assert twice.subject_id == once.subject_id
        assert twice.payload == once.payload


class TestAggregation:
    @settings(max_examples=100)
    @given(
        sightings=st.lists(
            st.tuples(
                st.sampled_from(["r1", "r2", "r3"]),
                st.sampled_from(["a", "b", "c", "d", "e"]),
            ),
            max_size=40,
        ),
        k=st.integers(1, 5),
    )
    def test_counts_respect_k(self, sightings, k):
        observations = [
            Observation.create("s", "bluetooth_beacon", 0.0, space, {}, subject_id=who)
            for space, who in sightings
        ]
        counts = aggregate_counts(observations, k=k)
        assert all(count >= k for count in counts.values())
        # Counts never exceed the distinct-subject universe.
        assert all(count <= 5 for count in counts.values())


class TestLaplace:
    @settings(max_examples=30)
    @given(
        value=st.floats(-1e3, 1e3, allow_nan=False),
        epsilon=st.floats(0.1, 10.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_noise_is_finite_and_seeded(self, value, epsilon, seed):
        a = laplace_noise(value, 1.0, epsilon, random.Random(seed))
        b = laplace_noise(value, 1.0, epsilon, random.Random(seed))
        assert a == b
        assert abs(a) < float("inf")
