"""Unit tests for social-ties inference."""

import pytest

from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.tippers.datastore import Datastore
from repro.tippers.social import SocialInference


def sighting(timestamp, subject, space):
    return Observation.create(
        sensor_id="s",
        sensor_type="bluetooth_beacon",
        timestamp=timestamp,
        space_id=space,
        payload={},
        subject_id=subject,
    )


@pytest.fixture
def store():
    return Datastore()


def meet(store, t, space, *people):
    for person in people:
        store.insert(sighting(t, person, space))


class TestGraphConstruction:
    def test_colocation_creates_edge(self, store):
        meet(store, 100.0, "r1", "a", "b")
        graph = SocialInference(store).build_graph()
        assert graph.has_edge("a", "b")
        assert graph.edges["a", "b"]["weight"] == 1

    def test_separate_windows_accumulate_weight(self, store):
        inference = SocialInference(store, window_s=300.0)
        meet(store, 0.0, "r1", "a", "b")
        meet(store, 400.0, "r1", "a", "b")
        meet(store, 800.0, "r2", "a", "b")
        graph = inference.build_graph()
        assert graph.edges["a", "b"]["weight"] == 3
        assert set(graph.edges["a", "b"]["spaces"]) == {"r1", "r2"}

    def test_same_window_counts_once(self, store):
        inference = SocialInference(store, window_s=300.0)
        meet(store, 10.0, "r1", "a", "b")
        meet(store, 20.0, "r1", "a", "b")
        assert inference.build_graph().edges["a", "b"]["weight"] == 1

    def test_different_rooms_no_edge(self, store):
        meet(store, 100.0, "r1", "a")
        meet(store, 100.0, "r2", "b")
        assert not SocialInference(store).build_graph().has_edge("a", "b")

    def test_unattributed_ignored(self, store):
        meet(store, 100.0, "r1", "a")
        store.insert(sighting(100.0, None, "r1"))
        graph = SocialInference(store).build_graph()
        assert list(graph.nodes) == ["a"]

    def test_ignore_spaces(self, store):
        meet(store, 100.0, "lunch", "a", "b")
        graph = SocialInference(store).build_graph(ignore_spaces={"lunch"})
        assert not graph.has_edge("a", "b")

    def test_time_window_filter(self, store):
        meet(store, 100.0, "r1", "a", "b")
        meet(store, 5000.0, "r1", "a", "b")
        graph = SocialInference(store).build_graph(since=4000.0)
        assert graph.edges["a", "b"]["weight"] == 1


class TestDerivedFacts:
    def test_ties_respect_min_encounters(self, store):
        inference = SocialInference(store, min_encounters=2)
        meet(store, 0.0, "r1", "a", "b")
        meet(store, 400.0, "r1", "a", "b")
        meet(store, 0.0, "r2", "a", "c")  # only one encounter
        ties = inference.ties_of("a")
        assert [t.pair for t in ties] == [("a", "b")]
        assert ties[0].encounters == 2

    def test_ties_sorted_strongest_first(self, store):
        inference = SocialInference(store, min_encounters=1)
        meet(store, 0.0, "r1", "a", "b")
        meet(store, 400.0, "r1", "a", "b")
        meet(store, 800.0, "r2", "a", "c")
        ties = inference.ties_of("a")
        assert [t.pair for t in ties] == [("a", "b"), ("a", "c")]

    def test_ties_of_unknown_user(self, store):
        assert SocialInference(store).ties_of("ghost") == []

    def test_communities(self, store):
        inference = SocialInference(store, min_encounters=1)
        meet(store, 0.0, "r1", "a", "b")
        meet(store, 0.0, "r2", "c", "d")
        meet(store, 400.0, "r2", "c", "d")
        communities = inference.communities()
        assert {"a", "b"} in communities
        assert {"c", "d"} in communities

    def test_most_central(self, store):
        inference = SocialInference(store, min_encounters=1)
        # Hub "a" meets everyone; others only meet "a".
        meet(store, 0.0, "r1", "a", "b")
        meet(store, 400.0, "r2", "a", "c")
        meet(store, 800.0, "r3", "a", "d")
        ranked = inference.most_central(top=2)
        assert ranked[0][0] == "a"
        assert ranked[0][1] == 3.0

    def test_most_central_empty(self, store):
        assert SocialInference(store).most_central() == []


class TestPrivacyInteraction:
    def test_deidentified_data_starves_the_graph(self, store):
        """AGGREGATE-granularity capture carries no subject, so social
        inference has nothing to work with."""
        store.insert(sighting(0.0, None, "r1"))
        store.insert(sighting(0.0, None, "r1"))
        graph = SocialInference(store).build_graph()
        assert graph.number_of_nodes() == 0


class TestValidation:
    def test_bad_parameters(self, store):
        with pytest.raises(StorageError):
            SocialInference(store, window_s=0)
        with pytest.raises(StorageError):
            SocialInference(store, min_encounters=0)
