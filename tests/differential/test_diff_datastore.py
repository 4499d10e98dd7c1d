"""Differential tests: the indexed datastore against a full scan.

The datastore answers every read from an index -- a sensor type's
stream, a (sensor type, space) cell, or a subject's history -- found
with ``bisect`` and, with a ``limit``, scanned newest-first.  The
reference here keeps one flat list of every observation and answers by
scanning all of it, filtering and sorting by ``(timestamp,
observation_id)``: the datastore's query body before it had indexes.

Both receive the same generated sequence of inserts (timestamps out of
order and tied, ids out of order among tied timestamps), retention
sweeps and subject erasures.  After each one, every read shape must
give the same observations in the same order.  The inference reads
that carry ``now`` are checked against their one-pass originals over
the reference, which is first cut to each stream's retention at
``now`` -- the datastore is never swept for them, so an expired reading
they returned would show up as a difference.

The example counts come from the profiles in ``conftest.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from hypothesis import example, given, strategies as st

from repro.sensors.base import Observation
from repro.tippers.datastore import Datastore
from repro.tippers.inference import LOCATION_SENSOR_TYPES, InferenceEngine

SENSOR_TYPES = ("wifi_access_point", "bluetooth_beacon", "motion_sensor")
SPACES = ("r1", "r2")
SUBJECTS = ("mary", "bob")

#: A few timestamps, so that ties are common.
timestamps = st.sampled_from([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
readings = st.tuples(
    st.integers(1, 40),  # observation id; repeats are allowed
    st.sampled_from(SENSOR_TYPES),
    timestamps,
    st.one_of(st.none(), st.sampled_from(SPACES)),
    st.one_of(st.none(), st.sampled_from(SUBJECTS)),
    st.sampled_from([0, 1]),
)
retentions = st.dictionaries(
    st.sampled_from(SENSOR_TYPES), st.sampled_from([0.0, 5.0, 15.0, 25.0]), max_size=3
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), readings),
        st.tuples(st.just("sweep"), timestamps, retentions),
        st.tuples(st.just("forget"), st.sampled_from(SUBJECTS)),
    ),
    max_size=40,
)
windows = st.tuples(
    st.one_of(st.none(), timestamps), st.one_of(st.none(), st.sampled_from([15.0, 35.0, 60.0]))
)


def _make(reading) -> Observation:
    observation_id, sensor_type, timestamp, space_id, subject_id, motion = reading
    return Observation(
        observation_id=observation_id,
        sensor_id="s-%s" % sensor_type,
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id=space_id,
        payload={"motion": motion},
        subject_id=subject_id,
    )


class Reference:
    """Every observation in one list; every read scans all of it."""

    def __init__(self) -> None:
        self.observations: List[Observation] = []

    def sweep(self, now: float, retention_by_type: Dict[str, float]) -> int:
        kept = [
            o
            for o in self.observations
            if o.timestamp >= now - retention_by_type.get(o.sensor_type, float("inf"))
        ]
        purged = len(self.observations) - len(kept)
        self.observations = kept
        return purged

    def forget(self, subject_id: str) -> int:
        kept = [o for o in self.observations if o.subject_id != subject_id]
        forgotten = len(self.observations) - len(kept)
        self.observations = kept
        return forgotten

    def query(
        self,
        sensor_type: Optional[str] = None,
        space_id: Optional[str] = None,
        subject_id: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
        predicate: Optional[Callable[[Observation], bool]] = None,
    ) -> List[Observation]:
        matches = []
        for observation in self.observations:
            if sensor_type is not None and observation.sensor_type != sensor_type:
                continue
            if space_id is not None and observation.space_id != space_id:
                continue
            if subject_id is not None and observation.subject_id != subject_id:
                continue
            if since is not None and observation.timestamp < since:
                continue
            if until is not None and observation.timestamp >= until:
                continue
            if predicate is not None and not predicate(observation):
                continue
            matches.append(observation)
        matches.sort(key=lambda obs: (obs.timestamp, obs.observation_id))
        if limit is not None and len(matches) > limit:
            matches = matches[-limit:]
        return matches


# ----------------------------------------------------------------------
# The inference reads that carry ``now``, one pass over the reference
# ----------------------------------------------------------------------
def _moved(observation: Observation) -> bool:
    return observation.payload.get("motion") == 1


def ref_is_occupied(ref: Reference, space_id: str, now: float, window_s: float) -> bool:
    since = max(0.0, now - window_s)
    if ref.query(
        sensor_type="motion_sensor", space_id=space_id, since=since, predicate=_moved
    ):
        return True
    return any(
        ref.query(sensor_type=t, space_id=space_id, since=since)
        for t in LOCATION_SENSOR_TYPES
    )


def ref_occupant_count(ref: Reference, space_id: str, now: float, window_s: float) -> int:
    since = max(0.0, now - window_s)
    return len(
        {
            o.subject_id
            for t in LOCATION_SENSOR_TYPES
            for o in ref.query(sensor_type=t, space_id=space_id, since=since)
            if o.subject_id is not None
        }
    )


def ref_occupancy_map(ref: Reference, now: float, window_s: float) -> Dict[str, int]:
    since = max(0.0, now - window_s)
    subjects: Dict[str, Set[str]] = {}
    for t in LOCATION_SENSOR_TYPES:
        for o in ref.query(sensor_type=t, since=since):
            if o.space_id is not None and o.subject_id is not None:
                subjects.setdefault(o.space_id, set()).add(o.subject_id)
    return {space: len(people) for space, people in subjects.items()}


def ref_locate(ref: Reference, subject_id: str, now: float, window_s: float):
    since = max(0.0, now - window_s)
    best: Optional[Observation] = None
    for o in ref.query(subject_id=subject_id):
        if (
            o.timestamp < since
            or o.sensor_type not in LOCATION_SENSOR_TYPES
            or o.space_id is None
        ):
            continue
        if best is None or (o.timestamp, -o.observation_id) > (
            best.timestamp,
            -best.observation_id,
        ):
            best = o
    return None if best is None else (best.space_id, best.timestamp, best.sensor_type)


def ref_people_in(ref: Reference, space_id: str, now: float, window_s: float) -> List[str]:
    since = max(0.0, now - window_s)
    latest: Dict[str, Observation] = {}
    for t in LOCATION_SENSOR_TYPES:
        for o in ref.query(sensor_type=t, since=since):
            if o.subject_id is None or o.space_id is None:
                continue
            current = latest.get(o.subject_id)
            if current is None or o.timestamp > current.timestamp:
                latest[o.subject_id] = o
    return sorted(s for s, o in latest.items() if o.space_id == space_id)


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def _ids(observations) -> List[int]:
    return [id(o) for o in observations]


def assert_reads_match(store: Datastore, ref: Reference, since, until) -> None:
    if since is not None and until is not None and since >= until:
        until = None
    assert store.count() == len(ref.observations)
    assert store.stream_names() == sorted({o.sensor_type for o in ref.observations})
    window = {"since": since, "until": until}
    for sensor_type in SENSOR_TYPES:
        assert store.count(sensor_type) == len(ref.query(sensor_type=sensor_type))
        shapes = [{"sensor_type": sensor_type}] + [
            {"sensor_type": sensor_type, "space_id": space} for space in SPACES
        ]
        for shape in shapes:
            assert _ids(store.query(**shape, **window)) == _ids(ref.query(**shape, **window))
            for limit in (1, 2):
                assert _ids(store.query(**shape, **window, limit=limit)) == _ids(
                    ref.query(**shape, **window, limit=limit)
                )
                assert _ids(
                    store.query(**shape, **window, limit=limit, predicate=_moved)
                ) == _ids(ref.query(**shape, **window, limit=limit, predicate=_moved))
        assert store.latest(sensor_type=sensor_type) is (
            (ref.query(sensor_type=sensor_type, limit=1) or [None])[-1]
        )
    for subject in SUBJECTS:
        assert _ids(store.of_subject(subject)) == _ids(ref.query(subject_id=subject))
        assert _ids(store.query(subject_id=subject, **window)) == _ids(
            ref.query(subject_id=subject, **window)
        )
        assert _ids(
            store.query(subject_id=subject, sensor_type="wifi_access_point", limit=1)
        ) == _ids(ref.query(subject_id=subject, sensor_type="wifi_access_point", limit=1))


def assert_inference_matches(
    store: Datastore, ref: Reference, retention: Dict[str, float], now: float
) -> None:
    """Inference over the unswept store == the originals over the
    reference cut to retention at ``now``."""
    cut = Reference()
    cut.observations = list(ref.observations)
    cut.sweep(now, retention)
    engine = InferenceEngine(store, retention=lambda: retention)
    for window_s in (15.0, 300.0):
        for space in SPACES:
            assert engine.is_occupied(space, now, window_s) == ref_is_occupied(
                cut, space, now, window_s
            )
            assert engine.occupant_count(space, now, window_s) == ref_occupant_count(
                cut, space, now, window_s
            )
            assert engine.people_in(space, now, window_s) == ref_people_in(
                cut, space, now, window_s
            )
        assert engine.occupancy_map(now, window_s) == ref_occupancy_map(
            cut, now, window_s
        )
        for subject in SUBJECTS:
            estimate = engine.locate(subject, now, window_s)
            assert (
                None
                if estimate is None
                else (estimate.space_id, estimate.timestamp, estimate.source_sensor_type)
            ) == ref_locate(cut, subject, now, window_s)


@example(
    sequence=[
        ("insert", (5, "wifi_access_point", 20.0, "r1", "mary", 0)),
        ("insert", (3, "wifi_access_point", 20.0, "r2", "mary", 0)),
        ("insert", (9, "bluetooth_beacon", 20.0, "r1", "mary", 0)),
        ("insert", (1, "motion_sensor", 40.0, "r1", None, 1)),
        ("insert", (2, "motion_sensor", 10.0, "r1", None, 1)),
        ("sweep", 30.0, {"motion_sensor": 15.0}),
        ("forget", "mary"),
    ],
    since=None,
    until=None,
    now=40.0,
    retention={"wifi_access_point": 25.0},
)
@given(
    sequence=ops,
    since=windows.map(lambda w: w[0]),
    until=windows.map(lambda w: w[1]),
    now=st.sampled_from([20.0, 40.0, 60.0]),
    retention=retentions,
)
def test_every_read_matches_the_full_scan(sequence, since, until, now, retention):
    store = Datastore()
    ref = Reference()
    for op in sequence:
        if op[0] == "insert":
            observation = _make(op[1])
            store.insert(observation)
            ref.observations.append(observation)
        elif op[0] == "sweep":
            assert store.sweep(op[1], op[2]) == ref.sweep(op[1], op[2])
        else:
            assert store.forget_subject(op[1]) == ref.forget(op[1])
        assert_reads_match(store, ref, since, until)
    assert store.total_purged == store.total_inserted - store.count()
    assert_inference_matches(store, ref, retention, now)
