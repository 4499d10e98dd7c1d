"""Property tests: datastore consistency and snapshot round-trips."""

from hypothesis import given, settings, strategies as st

from repro.core.enforcement.audit import AuditRecord, audit_record_from_dict
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.sensors.base import Observation
from repro.storage import records
from repro.tippers.datastore import Datastore

observations = st.builds(
    Observation.create,
    sensor_id=st.sampled_from(["s1", "s2"]),
    sensor_type=st.sampled_from(["wifi_access_point", "motion_sensor", "camera"]),
    timestamp=st.floats(0, 1e6, allow_nan=False),
    space_id=st.one_of(st.none(), st.sampled_from(["r1", "r2", "r3"])),
    payload=st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.integers(-5, 5), st.text(max_size=5), st.booleans(), st.none()),
        max_size=3,
    ),
    subject_id=st.one_of(st.none(), st.sampled_from(["mary", "bob"])),
)

audit_records = st.builds(
    AuditRecord,
    timestamp=st.floats(0, 1e6, allow_nan=False),
    requester_id=st.text(max_size=5),
    phase=st.sampled_from(DecisionPhase),
    category=st.text(max_size=5),
    subject_id=st.one_of(st.none(), st.sampled_from(["mary", "bob"])),
    space_id=st.one_of(st.none(), st.sampled_from(["r1", "r2", "r3"])),
    effect=st.sampled_from(Effect),
    granularity=st.sampled_from(GranularityLevel),
    reasons=st.lists(st.text(max_size=8), max_size=3).map(tuple),
    notify_user=st.booleans(),
)


def everything(store):
    """Every stored observation, stream by stream."""
    return [o for name in store.stream_names() for o in store.query(sensor_type=name)]


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(observations, max_size=30))
def test_query_is_sorted_and_complete(batch):
    store = Datastore()
    store.insert_many(batch)
    assert len(everything(store)) == len(batch)
    for name in store.stream_names():
        keys = [(o.timestamp, o.observation_id) for o in store.query(sensor_type=name)]
        assert keys == sorted(keys)


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(observations, max_size=30))
def test_stream_partition_is_exact(batch):
    """Per-type queries partition the full result set."""
    store = Datastore()
    store.insert_many(batch)
    by_stream = [
        o.observation_id
        for name in store.stream_names()
        for o in store.query(sensor_type=name)
    ]
    assert sorted(by_stream) == sorted(o.observation_id for o in batch)


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(observations, max_size=30))
def test_subject_index_matches_scan(batch):
    store = Datastore()
    store.insert_many(batch)
    for subject in ("mary", "bob"):
        indexed = {o.observation_id for o in store.query(subject_id=subject)}
        scanned = {
            o.observation_id for o in everything(store) if o.subject_id == subject
        }
        assert indexed == scanned


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(observations, max_size=20), retention=st.floats(0, 1e6, allow_nan=False), now=st.floats(0, 2e6, allow_nan=False))
def test_sweep_removes_exactly_the_expired(batch, retention, now):
    store = Datastore()
    store.insert_many(batch)
    schedule = {"wifi_access_point": retention}
    store.sweep(now, schedule)
    cutoff = now - retention
    for observation in everything(store):
        if observation.sensor_type == "wifi_access_point":
            assert observation.timestamp >= cutoff
    expected_kept = [
        o
        for o in batch
        if o.sensor_type != "wifi_access_point" or o.timestamp >= cutoff
    ]
    assert store.count() == len(expected_kept)


@settings(max_examples=150, deadline=None)
@given(observation=observations)
def test_snapshot_record_round_trip(observation):
    record_type, data = records.decode_record(records.encode_observation(observation))
    assert record_type == records.OBS
    assert Observation.from_dict(data) == observation


@settings(max_examples=150, deadline=None)
@given(record=audit_records)
def test_audit_record_round_trip(record):
    record_type, data = records.decode_record(records.encode_audit(record))
    assert record_type == records.AUDIT
    assert audit_record_from_dict(data) == record


@settings(max_examples=75, deadline=None)
@given(batch=st.lists(observations, max_size=20))
def test_forget_subject_removes_all_and_only(batch):
    store = Datastore()
    store.insert_many(batch)
    removed = store.forget_subject("mary")
    assert removed == sum(1 for o in batch if o.subject_id == "mary")
    assert store.query(subject_id="mary") == []
    assert store.count() == len(batch) - removed
