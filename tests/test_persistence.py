"""Unit tests for snapshot files: round trips, torn tails, corruption.

A snapshot is written by compaction and read back by recovery; these
tests go through both, then poke at the file's frames directly.
"""

import os

import pytest

from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.storage.durable import DurableAuditLog, DurableDatastore, StorageEngine
from repro.storage.recovery import replay_directory
from repro.storage.snapshot import snapshot_path
from repro.storage.wal import FRAME_HEADER, SEGMENT_HEADER, encode_frame, scan_segment
from repro.tippers.datastore import Datastore


def obs(timestamp, sensor_type="wifi_access_point", subject=None, granularity="precise"):
    return Observation.create(
        sensor_id="s1",
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id="r1",
        payload={"device_mac": "aa:bb", "rssi": -40.0, "nested": {"k": [1, 2]}},
        subject_id=subject,
    ).with_payload({"device_mac": "aa:bb", "rssi": -40.0, "nested": {"k": [1, 2]}}, granularity)


def write_snapshot(directory, observations=(), audit_records=()):
    """Compact a store holding these records; returns the snapshot path."""
    engine = StorageEngine(str(directory))
    datastore = DurableDatastore(engine)
    audit = DurableAuditLog(engine)
    for observation in observations:
        datastore.insert(observation)
    for record in audit_records:
        audit.append(record)
    report = engine.compact()
    engine.close()
    return snapshot_path(str(directory), report.snapshot_lsn)


def corrupt_frame(path, index):
    """Flip one payload byte of the snapshot's ``index``-th frame."""
    offset = SEGMENT_HEADER.size
    for frame in scan_segment(path).frames[:index]:
        offset += FRAME_HEADER.size + len(frame.payload)
    with open(path, "r+b") as handle:
        handle.seek(offset + FRAME_HEADER.size)
        byte = handle.read(1)
        handle.seek(offset + FRAME_HEADER.size)
        handle.write(bytes([byte[0] ^ 0xFF]))


def tear_tail(path):
    """Append half a frame: what a crash mid-write leaves behind."""
    frames = scan_segment(path).frames
    frame = encode_frame(len(frames) + 1, b'{"d":{},"t":"obs"}')
    with open(path, "ab") as handle:
        handle.write(frame[: len(frame) // 2])


@pytest.fixture
def store():
    return [
        obs(1.0, subject="mary"),
        obs(2.0, sensor_type="motion_sensor"),
        obs(3.0, subject="bob", granularity="coarse"),
    ]


class TestDatastoreSnapshots:
    def test_round_trip_exact(self, store, tmp_path):
        original = Datastore()
        original.insert_many(store)
        write_snapshot(tmp_path, observations=store)
        restored = replay_directory(str(tmp_path)).datastore
        assert restored.count() == original.count()
        for sensor_type in original.stream_names():
            expected = original.query(sensor_type=sensor_type)
            loaded = restored.query(sensor_type=sensor_type)
            assert [o.to_dict() for o in expected] == [o.to_dict() for o in loaded]

    def test_subject_index_rebuilt(self, store, tmp_path):
        write_snapshot(tmp_path, observations=store)
        restored = replay_directory(str(tmp_path)).datastore
        assert len(restored.query(subject_id="mary")) == 1
        assert len(restored.query(subject_id="bob")) == 1

    def test_load_into_existing(self, store, tmp_path):
        write_snapshot(tmp_path, observations=store)
        target = Datastore()
        target.insert(obs(99.0))
        replay_directory(str(tmp_path), into_datastore=target)
        assert target.count() == 4

    def test_empty_snapshot(self, tmp_path):
        path = write_snapshot(tmp_path)
        assert scan_segment(path).frames == []
        assert replay_directory(str(tmp_path)).datastore.count() == 0

    def test_malformed_interior_line_reports_location(self, tmp_path, store):
        # A bad frame *followed by* good frames is corruption, not a
        # torn tail, and must raise with its location.
        path = write_snapshot(tmp_path, observations=store)
        corrupt_frame(path, 1)
        with pytest.raises(StorageError) as excinfo:
            replay_directory(str(tmp_path))
        message = str(excinfo.value)
        assert os.path.basename(path) in message
        assert "crc-mismatch" in message

    def test_torn_final_line_is_skipped_and_reported(self, tmp_path, store):
        path = write_snapshot(tmp_path, observations=store)
        tear_tail(path)
        state = replay_directory(str(tmp_path))
        assert state.datastore.count() == len(store)
        assert state.report.snapshot_torn_tails == 1

    def test_no_tmp_file_left_behind(self, store, tmp_path):
        write_snapshot(tmp_path, observations=store)
        assert not [name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")]


class TestAuditSnapshots:
    def make_records(self):
        return [
            AuditRecord(
                timestamp=float(index),
                requester_id="svc",
                phase=DecisionPhase.SHARING,
                category="location",
                subject_id="mary" if index % 2 == 0 else None,
                space_id="r1",
                effect=Effect.ALLOW if index else Effect.DENY,
                granularity=GranularityLevel.COARSE,
                reasons=("r%d" % index,),
                notify_user=index == 2,
            )
            for index in range(3)
        ]

    def test_round_trip_exact(self, tmp_path):
        records = self.make_records()
        write_snapshot(tmp_path, audit_records=records)
        assert list(replay_directory(str(tmp_path)).audit) == records

    def test_summary_survives(self, tmp_path):
        records = self.make_records()
        write_snapshot(tmp_path, audit_records=records)
        restored = replay_directory(str(tmp_path)).audit
        original = AuditLog()
        for record in records:
            original.append(record)
        assert restored.summary() == original.summary()

    def test_malformed_interior_audit_line(self, tmp_path):
        path = write_snapshot(tmp_path, audit_records=self.make_records())
        corrupt_frame(path, 0)
        with pytest.raises(StorageError):
            replay_directory(str(tmp_path))

    def test_torn_final_audit_line_is_skipped(self, tmp_path):
        records = self.make_records()
        path = write_snapshot(tmp_path, audit_records=records)
        tear_tail(path)
        state = replay_directory(str(tmp_path))
        assert list(state.audit) == records
        assert state.report.snapshot_torn_tails == 1
