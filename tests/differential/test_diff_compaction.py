"""Differential tests: a compacted store vs one that never compacts.

Compaction folds the log into a snapshot file and deletes the folded
segments; it must change *where* the state lives, never *what* it is.
Two storage directories receive the same generated sequence of
observation inserts, audit appends, preference submits and
withdrawals, and subject erasures.  One of them also compacts at
generated points; the reference never does.  Recovering each must then
give the same datastore contents, the same preferences, and the same
audit payload sequence -- which is, byte for byte, every audit record
appended, in order.  Retention is off, so nothing may be dropped that
an erasure did not drop.

The example counts come from the profiles in ``conftest.py``; the
``@example`` pins one sequence that folds every op kind twice.
"""

from __future__ import annotations

import tempfile
from typing import Any, List, Tuple

from hypothesis import example, given, strategies as st

from repro.core.enforcement.audit import AuditRecord
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.durable import DurableAuditLog, DurableDatastore, StorageEngine
from repro.storage.recovery import read_store, recover

subjects = st.sampled_from(["mary", "bob", "eve"])
timestamps = st.floats(0, 1e6, allow_nan=False)

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("obs"),
            st.one_of(st.none(), subjects),
            st.sampled_from(["wifi_access_point", "temperature"]),
            timestamps,
        ),
        st.tuples(st.just("audit"), subjects, st.sampled_from(Effect), timestamps),
        st.tuples(
            st.just("pref"),
            subjects,
            st.sampled_from(["p1", "p2"]),
            st.sampled_from(["allow", "deny"]),
        ),
        st.tuples(st.just("withdraw"), subjects),
        st.tuples(st.just("erase"), subjects),
        st.tuples(st.just("compact")),
    ),
    max_size=60,
)


class Store:
    """One storage directory and its durable structures."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.engine = StorageEngine(directory, segment_bytes=512)
        self.datastore = DurableDatastore(self.engine)
        self.audit = DurableAuditLog(self.engine)


def _apply(op: Tuple[Any, ...], stores: List[Store], appended: List[bytes]) -> None:
    kind = op[0]
    if kind == "obs":
        _, subject, sensor_type, timestamp = op
        observation = Observation.create(
            sensor_id="s1",
            sensor_type=sensor_type,
            timestamp=timestamp,
            space_id="r1",
            payload={"v": timestamp},
            subject_id=subject,
        )
        for store in stores:
            store.datastore.insert(observation)
    elif kind == "audit":
        _, subject, effect, timestamp = op
        record = AuditRecord(
            timestamp=timestamp,
            requester_id="svc",
            phase=DecisionPhase.SHARING,
            category="location",
            subject_id=subject,
            space_id="r1",
            effect=effect,
            granularity=GranularityLevel.PRECISE,
            reasons=("r",),
            notify_user=effect is Effect.DENY,
        )
        appended.append(records.encode_audit(record))
        for store in stores:
            store.audit.append(record)
    elif kind == "pref":
        _, user_id, preference_id, effect = op
        payload = records.encode_record(
            records.PREF,
            {"user_id": user_id, "preference_id": preference_id, "effect": effect},
        )
        for store in stores:
            store.engine.log(records.PREF, payload)
    elif kind == "withdraw":
        for store in stores:
            store.engine.log_withdraw_all(op[1])
    elif kind == "erase":
        for store in stores:
            store.datastore.forget_subject(op[1])


def _contents(directory: str) -> Tuple[Any, ...]:
    state = recover(directory)
    datastore = state.datastore
    streams = {
        stream: [o.to_dict() for o in datastore.query(sensor_type=stream)]
        for stream in datastore.stream_names()
    }
    audit_payloads = [
        payload
        for record_type, _, payload in read_store(directory)
        if record_type == records.AUDIT
    ]
    return streams, state.preferences, list(state.audit), audit_payloads


@given(ops)
@example([
    ("obs", "bob", "wifi_access_point", 1.0),
    ("obs", None, "temperature", 2.0),
    ("pref", "bob", "p1", "deny"),
    ("pref", "mary", "p1", "allow"),
    ("audit", "bob", Effect.ALLOW, 3.0),
    ("audit", "mary", Effect.DENY, 4.0),
    ("compact",),
    ("audit", "eve", Effect.ALLOW, 5.0),
    ("audit", "bob", Effect.DENY, 6.0),
    ("obs", "mary", "wifi_access_point", 7.0),
    ("erase", "bob"),
    ("withdraw", "mary"),
    ("pref", "mary", "p2", "deny"),
    ("compact",),
    ("audit", "mary", Effect.ALLOW, 8.0),
])
def test_compaction_changes_no_recovered_state(sequence):
    with tempfile.TemporaryDirectory() as reference_dir, \
            tempfile.TemporaryDirectory() as compacted_dir:
        reference = Store(reference_dir)
        compacted = Store(compacted_dir)
        appended: List[bytes] = []
        for op in sequence:
            if op[0] == "compact":
                compacted.engine.compact()
            else:
                _apply(op, [reference, compacted], appended)
        reference.engine.close()
        compacted.engine.close()

        expected = _contents(reference_dir)
        assert _contents(compacted_dir) == expected
        assert expected[3] == appended
