"""Differential test of the capture lane's audit bytes.

A compiled row keeps its audit record's WAL payload tail (the encoded
bytes after the timestamp), and a WAL-backed
:class:`~repro.storage.durable.DurableAuditLog` writes a served decision
as the timestamp's head plus that tail.  The reference is the generic
record encoder, ``encode_record(AUDIT, audit_record_to_dict(record))``,
the path every other record takes.  Checked here:

- for every compiled row and any timestamp, the payload
  ``DurableAuditLog.append(record, tail)`` writes equals the
  reference's bytes, or raises the reference's error;
- the fallback cases write the same bytes through ``log_audit``: a
  tail the template cannot write, an ``int`` or non-finite timestamp,
  and an audit log swapped after rows were compiled;
- an installed tap sees a served row's exact bytes, and the row still
  takes the payload-tail lane;
- a ``torn_write`` or ``crash_mid_append`` on any audit append,
  served rows included, leaves the same files, LSNs and ``len(audit)``
  as the reference interpreter, whose every append is encoded by
  ``log_audit``;
- every frame ``WriteAheadLog.append`` wrote is ``encode_frame``'s.

The example counts come from the profiles in ``conftest.py``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
from typing import Any, Callable, List, Optional

import pytest
from hypothesis import given, strategies as st

from repro.core.enforcement.audit import AuditLog, AuditRecord, audit_record_to_dict
from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.reasoner.index import PolicyIndex
from repro.errors import ReproError, SimulatedCrash
from repro.obs.metrics import MetricsRegistry
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.durable import DurableAuditLog, StorageEngine
from repro.storage.wal import (
    SEGMENT_HEADER,
    SEGMENT_MAGIC,
    encode_frame,
    list_segments,
    scan_segment,
)
from tests.differential.harness import make_context
from tests.differential.strategies import (
    observation_timestamps,
    observations,
    policies,
    preferences,
    requests,
)

#: Finite, integral, signed-zero, extreme and non-finite timestamps.
timestamps = st.one_of(
    st.floats(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(
        [0.0, -0.0, 1e300, -1e300, 5e-324, 43200.5, 43200, True,
         math.nan, math.inf, -math.inf]
    ),
)


def _outcome(call: Callable[[], Any]) -> Any:
    try:
        return call()
    except Exception as exc:  # the reference's error is part of the contract
        return (type(exc), str(exc))


def reference_bytes(record: AuditRecord) -> Any:
    return _outcome(
        lambda: records.encode_record(records.AUDIT, audit_record_to_dict(record))
    )


class Lane:
    """An engine over a WAL-backed audit log, recording what it writes."""

    def __init__(
        self,
        directory: str,
        engine_cls: type = CompiledEnforcementEngine,
        rules: tuple = ((), ()),
        segment_bytes: int = 1024,
    ) -> None:
        self.directory = directory
        metrics = MetricsRegistry()
        self.storage = StorageEngine(
            directory, segment_bytes=segment_bytes, metrics=metrics
        )
        store = PolicyIndex()
        for policy in rules[0]:
            store.add_policy(policy)
        for preference in rules[1]:
            store.add_preference(preference)
        self.audit = DurableAuditLog(self.storage, metrics=metrics)
        self.engine = engine_cls(
            store=store, context=make_context(), audit=self.audit, metrics=metrics
        )
        #: Every payload the WAL took, in order.
        self.payloads: List[bytes] = []
        #: How many audit records ``log_audit`` encoded (the fallback).
        self.encoded = 0
        wal_append = self.storage.wal.append
        log_audit = self.storage.log_audit

        def recording_append(payload: bytes, record_type: str = "") -> int:
            lsn = wal_append(payload, record_type)
            self.payloads.append(payload)
            return lsn

        def counting_log_audit(record: AuditRecord) -> Optional[int]:
            self.encoded += 1
            return log_audit(record)

        self.storage.wal.append = recording_append
        self.storage.log_audit = counting_log_audit

    def written(self, record: AuditRecord, tail: Optional[bytes]) -> Any:
        """The payload ``self.audit.append(record, tail)`` wrote, or its error."""
        before = len(self.payloads)

        def append() -> bytes:
            self.audit.append(record, tail)
            assert len(self.payloads) == before + 1
            return self.payloads[-1]

        return _outcome(append)

    def files(self) -> dict:
        contents = {}
        for name in sorted(os.listdir(self.directory)):
            with open(os.path.join(self.directory, name), "rb") as handle:
                contents[name] = handle.read()
        return contents

    def assert_frames_are_encode_frames(self) -> None:
        """Each segment is its header plus ``encode_frame`` of its frames,
        and those frames hold the payloads written, in order."""
        payloads = []
        for path in list_segments(self.directory):
            scan = scan_segment(path)
            assert not scan.torn
            with open(path, "rb") as handle:
                assert handle.read() == SEGMENT_HEADER.pack(
                    SEGMENT_MAGIC, scan.first_lsn
                ) + b"".join(
                    encode_frame(frame.lsn, frame.payload) for frame in scan.frames
                )
            payloads.extend(frame.payload for frame in scan.frames)
        assert payloads == self.payloads

    def close(self) -> None:
        self.storage.close()


ROW_TAIL = (
    "building",
    DecisionPhase.CAPTURE,
    "location",
    "mary",
    "r1",
    Effect.ALLOW,
    GranularityLevel.PRECISE,
    ("policy:p1", 'q"uote\\', "\x00ctl", "é \ud800"),
    True,
)


def _warm(engine, observation_list):
    for observation in observation_list:
        engine.enforce_observation(observation, DecisionPhase.CAPTURE)


WIFI = [
    Observation(
        observation_id=index,
        sensor_id="ap-%d" % index,
        sensor_type="wifi_access_point",
        timestamp=43200.0 + index,
        space_id=space,
        payload={"mac": "aa:bb"},
        subject_id=subject,
    )
    for index, (space, subject) in enumerate(
        [("b-1001", "mary"), ("b-1002", "bob"), ("b-2001", None)]
    )
]
RULES = ([catalog.policy_2_emergency_location("b")], [])


# ----------------------------------------------------------------------
# Every row, any timestamp
# ----------------------------------------------------------------------
def assert_rows_write_generic_bytes(lane: Lane, timestamp_list) -> None:
    """Every row of ``lane``'s table, appended at each timestamp, writes
    the reference's bytes; only a finite ``float`` takes the lane."""
    for row in lane.engine._rows.values():
        tail = row[3]
        assert tail is not None
        assert tail == records.audit_payload_tail(row[1])
        for timestamp in timestamp_list:
            record = AuditRecord._make((timestamp,) + row[1])
            encoded = lane.encoded
            assert lane.written(record, tail) == reference_bytes(record)
            lane_taken = type(timestamp) is float and math.isfinite(timestamp)
            assert lane.encoded == encoded + (not lane_taken)
    assert len(lane.audit) == len(lane.payloads)
    lane.assert_frames_are_encode_frames()


@given(
    policy_list=st.lists(policies, max_size=5),
    preference_list=st.lists(preferences, max_size=5),
    request_list=st.lists(requests, min_size=1, max_size=12),
    timestamp_list=st.lists(timestamps, min_size=1, max_size=4),
)
def test_every_row_writes_the_generic_bytes(
    policy_list, preference_list, request_list, timestamp_list
):
    with tempfile.TemporaryDirectory() as directory:
        lane = Lane(directory, rules=(policy_list, preference_list))
        for request in request_list:
            lane.engine.decide(request)
        assert_rows_write_generic_bytes(lane, timestamp_list)
        lane.close()


def test_capture_rows_write_the_generic_bytes(tmp_path):
    lane = Lane(str(tmp_path), rules=RULES)
    _warm(lane.engine, WIFI)
    assert lane.engine.table_rows == len(WIFI)
    assert_rows_write_generic_bytes(
        lane, [43200.0, -0.0, 1e300, 5e-324, 43200, True, math.nan, math.inf]
    )
    lane.close()


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "tail",
    [
        ROW_TAIL[:7] + (["as", "list"], True),
        ROW_TAIL[:7] + (("ok", 5), True),
        ROW_TAIL[:8] + (1,),
        (None,) + ROW_TAIL[1:],
        ROW_TAIL[:2] + (7,) + ROW_TAIL[3:],
        ROW_TAIL[:1] + ("capture",) + ROW_TAIL[2:],
    ],
    ids=[
        "reasons-list",
        "reason-int",
        "notify-int",
        "requester-none",
        "category-int",
        "phase-str",
    ],
)
def test_a_tail_the_template_cannot_write_falls_back(tail, tmp_path):
    lane = Lane(str(tmp_path))
    assert lane.audit.payload_tail(tail) is None
    record = AuditRecord._make((43200.0,) + tail)
    assert lane.written(record, None) == reference_bytes(record)
    assert lane.encoded == 1
    lane.assert_frames_are_encode_frames()
    lane.close()


def test_a_tapped_row_keeps_the_lane(tmp_path):
    lane = Lane(str(tmp_path))
    tail = lane.audit.payload_tail(ROW_TAIL)
    seen = []
    lane.storage.taps.append(
        lambda record_type, payload: seen.append((record_type, payload))
    )
    record = AuditRecord._make((43200.0,) + ROW_TAIL)
    assert lane.written(record, tail) == reference_bytes(record)
    assert seen == [(records.AUDIT, reference_bytes(record))]
    assert lane.encoded == 0  # the tap did not force a re-encode
    lane.assert_frames_are_encode_frames()
    lane.close()


def test_a_log_swapped_in_after_rows_compiled_writes_the_same_bytes(tmp_path):
    # Rows compiled under an in-memory log carry no tail.
    lane = Lane(str(tmp_path / "a"), rules=RULES)
    lane.engine.audit = AuditLog(metrics=MetricsRegistry())
    _warm(lane.engine, WIFI)
    assert lane.engine.table_rows and all(
        row[3] is None for row in lane.engine._rows.values()
    )
    lane.engine.audit = lane.audit
    hits = lane.engine.stats.hits
    _warm(lane.engine, WIFI)
    assert lane.engine.stats.hits == hits + len(WIFI)
    assert lane.encoded == len(WIFI)
    assert lane.payloads == [reference_bytes(record) for record in lane.audit]

    # Rows compiled under one WAL-backed log, served by another.
    lane.engine.invalidate_all()
    _warm(lane.engine, WIFI)
    assert all(row[3] is not None for row in lane.engine._rows.values())
    other = Lane(str(tmp_path / "b"))
    lane.engine.audit = other.audit
    _warm(lane.engine, WIFI)
    assert other.encoded == 0
    assert other.payloads == [reference_bytes(record) for record in other.audit]
    other.assert_frames_are_encode_frames()

    # And back to memory: the records are the ones the WAL holds.
    memory = AuditLog(metrics=MetricsRegistry())
    lane.engine.audit = memory
    _warm(lane.engine, WIFI)
    assert list(memory) == list(other.audit)
    lane.assert_frames_are_encode_frames()
    lane.close()
    other.close()


# ----------------------------------------------------------------------
# Faults and crashes
# ----------------------------------------------------------------------
def crash_on_audit(nth: int, verdict: str):
    """A WAL plane that crashes the ``nth`` audit append."""
    seen = [0]

    def plane(operation: str, record_type: str) -> Optional[str]:
        if record_type != records.AUDIT:
            return None
        seen[0] += 1
        return verdict if seen[0] == nth else None

    return plane


def run_until_crash(lane: Lane, steps, observation_list) -> List[Any]:
    """Enforce each step's reading until one crashes; the outcomes."""
    outcomes = []
    for index, phase, timestamp in steps:
        observation = dataclasses.replace(
            observation_list[index % len(observation_list)], timestamp=timestamp
        )
        try:
            outcomes.append(lane.engine.enforce_observation(observation, phase))
        except SimulatedCrash:
            outcomes.append("crash")
            break
        except ReproError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def assert_same_crash(rules, observation_list, steps, nth, verdict) -> Lane:
    with tempfile.TemporaryDirectory() as directory:
        lane = Lane(os.path.join(directory, "lane"), rules=rules)
        oracle = Lane(os.path.join(directory, "oracle"), EnforcementEngine, rules)
        for each in (lane, oracle):
            each.storage.install_fault_plane(crash_on_audit(nth, verdict))
        assert run_until_crash(lane, steps, observation_list) == run_until_crash(
            oracle, steps, observation_list
        )
        assert lane.files() == oracle.files()
        assert lane.storage.wal.next_lsn == oracle.storage.wal.next_lsn
        assert len(lane.audit) == len(oracle.audit)
        assert lane.encoded <= oracle.encoded
        lane.close()
        oracle.close()
        return lane


@given(
    policy_list=st.lists(policies, max_size=4),
    preference_list=st.lists(preferences, max_size=4),
    observation_list=st.lists(observations, min_size=1, max_size=4),
    steps=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from([DecisionPhase.CAPTURE, DecisionPhase.STORAGE]),
            observation_timestamps,
        ),
        min_size=1,
        max_size=30,
    ),
    nth=st.integers(1, 30),
    verdict=st.sampled_from(["torn_write", "crash_mid_append"]),
)
def test_a_crash_leaves_what_the_request_path_leaves(
    policy_list, preference_list, observation_list, steps, nth, verdict
):
    assert_same_crash(
        (policy_list, preference_list), observation_list, steps, nth, verdict
    )


@pytest.mark.parametrize("verdict", ["torn_write", "crash_mid_append"])
def test_a_crash_on_a_served_row_leaves_what_the_request_path_leaves(verdict):
    # Three readings warm three rows; the fifth audit append is a served
    # decision (the second reading of b-1002), and it crashes.
    steps = [(index % 3, DecisionPhase.CAPTURE, 43300.0 + index) for index in range(6)]
    lane = assert_same_crash(RULES, WIFI, steps, 5, verdict)
    assert lane.engine.stats.hits == 2
    assert lane.encoded == 3
