"""Unit tests for the observation datastore."""

import pytest

from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.tippers.datastore import Datastore


def obs(timestamp, sensor_type="wifi_access_point", space="r1", subject=None):
    return Observation.create(
        sensor_id="s1",
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id=space,
        payload={},
        subject_id=subject,
    )


@pytest.fixture
def store():
    ds = Datastore()
    ds.insert(obs(1.0, subject="mary"))
    ds.insert(obs(2.0, subject="bob"))
    ds.insert(obs(3.0, sensor_type="motion_sensor", space="r2"))
    ds.insert(obs(4.0, subject="mary", space="r2"))
    return ds


class TestInsertAndCount:
    def test_counts(self, store):
        assert store.count() == 4
        assert store.count("wifi_access_point") == 3
        assert store.count("camera") == 0
        assert store.total_inserted == 4

    def test_out_of_order_insert_sorted(self):
        ds = Datastore()
        ds.insert(obs(5.0))
        ds.insert(obs(1.0))
        ds.insert(obs(3.0))
        times = [o.timestamp for o in ds.query(sensor_type="wifi_access_point")]
        assert times == [1.0, 3.0, 5.0]

    def test_insert_many(self):
        ds = Datastore()
        assert ds.insert_many([obs(1.0), obs(2.0)]) == 2

    def test_stream_names(self, store):
        assert store.stream_names() == ["motion_sensor", "wifi_access_point"]


class TestQuery:
    def test_by_type(self, store):
        assert len(store.query(sensor_type="motion_sensor")) == 1

    def test_by_space(self, store):
        assert len(store.query(sensor_type="wifi_access_point", space_id="r2")) == 1
        assert len(store.query(sensor_type="motion_sensor", space_id="r2")) == 1
        assert store.query(sensor_type="motion_sensor", space_id="r1") == []

    def test_by_subject(self, store):
        assert len(store.query(subject_id="mary")) == 2

    def test_window_since_inclusive_until_exclusive(self, store):
        window = store.query(sensor_type="wifi_access_point", since=2.0, until=4.0)
        assert [o.timestamp for o in window] == [2.0]
        window = store.query(subject_id="mary", since=1.0, until=4.0)
        assert [o.timestamp for o in window] == [1.0]

    def test_empty_window_rejected(self, store):
        with pytest.raises(StorageError):
            store.query(since=5.0, until=5.0)

    def test_limit_keeps_newest(self, store):
        newest = store.query(sensor_type="wifi_access_point", limit=2)
        assert [o.timestamp for o in newest] == [2.0, 4.0]

    def test_limit_below_one_rejected(self, store):
        with pytest.raises(StorageError):
            store.query(sensor_type="wifi_access_point", limit=0)

    def test_query_names_an_index(self, store):
        with pytest.raises(ValueError):
            store.query()
        with pytest.raises(ValueError):
            store.query(space_id="r2")

    def test_predicate(self, store):
        found = store.query(
            sensor_type="wifi_access_point", predicate=lambda o: o.subject_id == "bob"
        )
        assert len(found) == 1

    def test_combined_filters(self, store):
        found = store.query(sensor_type="wifi_access_point", space_id="r2", subject_id="mary")
        assert [o.timestamp for o in found] == [4.0]

    def test_latest(self, store):
        assert store.latest(sensor_type="wifi_access_point").timestamp == 4.0
        assert store.latest(subject_id="bob").timestamp == 2.0
        assert store.latest(sensor_type="motion_sensor").timestamp == 3.0
        assert store.latest(sensor_type="camera") is None


class TestRetention:
    def test_sweep_purges_old(self, store):
        purged = store.sweep(now=10.0, retention_by_type={"wifi_access_point": 7.0})
        # cutoff = 3.0: observations at 1.0 and 2.0 purged.
        assert purged == 2
        assert store.count("wifi_access_point") == 1
        assert store.total_purged == 2

    def test_sweep_cleans_subject_index(self, store):
        store.sweep(now=10.0, retention_by_type={"wifi_access_point": 7.0})
        assert [o.timestamp for o in store.query(subject_id="mary")] == [4.0]

    def test_unlisted_streams_kept(self, store):
        store.sweep(now=100.0, retention_by_type={"wifi_access_point": 1.0})
        assert store.count("motion_sensor") == 1

    def test_negative_retention_rejected(self, store):
        with pytest.raises(StorageError):
            store.sweep(now=1.0, retention_by_type={"wifi_access_point": -1.0})

    def test_refused_sweep_purges_nothing(self, store):
        """Every retention is checked before any stream is purged."""
        with pytest.raises(StorageError):
            store.sweep(
                now=100.0,
                retention_by_type={"wifi_access_point": 10.0, "motion_sensor": -1.0},
            )
        assert store.count() == 4
        assert store.total_purged == 0
        assert len(store.query(subject_id="mary")) == 2

    def test_sweep_nothing_due(self, store):
        assert store.sweep(now=4.0, retention_by_type={"wifi_access_point": 100.0}) == 0


class TestForgetSubject:
    def test_all_traces_removed(self, store):
        removed = store.forget_subject("mary")
        assert removed == 2
        assert store.query(subject_id="mary") == []
        assert store.count() == 2

    def test_forget_unknown_subject(self, store):
        assert store.forget_subject("ghost") == 0
