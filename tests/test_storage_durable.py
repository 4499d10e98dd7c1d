"""Unit tests for the storage engine and durable wrappers."""

import pytest

from repro.core.enforcement.audit import AuditRecord, audit_record_to_dict
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import SimulatedCrash, StorageError
from repro.obs.metrics import MetricsRegistry
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.durable import DurableAuditLog, DurableDatastore, StorageEngine
from repro.storage.recovery import replay_directory
from repro.storage.wal import MAX_PAYLOAD_BYTES, list_segments, scan_segment


def obs(timestamp, subject=None):
    return Observation.create(
        sensor_id="s1",
        sensor_type="temperature",
        timestamp=timestamp,
        space_id="r1",
        payload={"v": timestamp},
        subject_id=subject,
    )


def audit_record(timestamp):
    return AuditRecord(
        timestamp=timestamp,
        requester_id="svc",
        phase=DecisionPhase.SHARING,
        category="location",
        subject_id="mary",
        space_id="r1",
        effect=Effect.ALLOW,
        granularity=GranularityLevel.PRECISE,
        reasons=("test",),
        notify_user=False,
    )


class TestRecordCodec:
    def test_round_trip(self):
        data = obs(1.0).to_dict()
        payload = records.encode_record(records.OBS, data)
        record_type, decoded = records.decode_record(payload)
        assert record_type == records.OBS
        assert decoded == data

    def test_canonical_encoding_is_stable(self):
        first = records.encode_record(records.PREF, {"b": 1, "a": 2})
        second = records.encode_record(records.PREF, {"a": 2, "b": 1})
        assert first == second

    def test_garbage_raises(self):
        with pytest.raises(StorageError):
            records.decode_record(b"not json")
        with pytest.raises(StorageError):
            records.decode_record(b'{"not": "an array"}')
        with pytest.raises(StorageError):  # no longer a record type
            records.decode_record(b'["table",{}]')

    def test_keyed_envelope_is_not_read(self):
        with pytest.raises(StorageError):
            records.decode_record(b'{"d":{"user_id":"mary"},"t":"pref"}')

    def test_positional_record_with_wrong_keys_is_storage_error(self):
        data = audit_record_to_dict(audit_record(1.0))
        extra = dict(data, decision_id=7)
        missing = dict(data)
        del missing["reasons"]
        for wrong in (extra, missing, {}):
            with pytest.raises(StorageError):
                records.encode_record(records.AUDIT, wrong)
        with pytest.raises(StorageError):
            records.encode_record(records.OBS, {"a": 1, "b": [2, 3]})

    @pytest.mark.parametrize(
        "data",
        [{"x": float("nan")}, {1: 2, "a": 1}, {"x": object()}],
        ids=["nan", "unsortable-keys", "object"],
    )
    def test_unencodable_data_raises_storage_error(self, data):
        with pytest.raises(StorageError):
            records.encode_record(records.PREF, data)


class TestStorageEngine:
    def test_log_returns_lsns(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        assert engine.log_observation(obs(1.0)) == 1
        assert engine.log_forget("mary") == 2
        assert engine.log_audit(audit_record(1.0)) == 3
        engine.close()

    def test_replaying_suppresses_logging(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        engine.replaying = True
        assert engine.log_observation(obs(1.0)) is None
        assert engine.wal.appends == 0
        engine.close()

    def test_taps_see_records_before_the_write(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        seen = []
        engine.taps.append(lambda rt, payload: seen.append(rt))
        engine.install_fault_plane(lambda op, rt: "torn_write")
        with pytest.raises(SimulatedCrash):
            engine.log_observation(obs(1.0))
        assert seen == [records.OBS]  # tapped even though the write tore
        engine.close()

    def test_logging_builds_no_record_dict(self, tmp_path, monkeypatch):
        def forbidden(record):
            raise AssertionError("record dict built for a hot record")

        monkeypatch.setattr(records, "audit_record_to_dict", forbidden)
        monkeypatch.setattr(Observation, "to_dict", forbidden)
        engine = StorageEngine(str(tmp_path))
        assert engine.log_audit(audit_record(1.0)) == 1
        engine.taps.append(lambda rt, payload: None)
        assert engine.log_observation(obs(2.0)) == 2
        assert engine.log_audit(audit_record(3.0)) == 3
        engine.close()

    def test_tap_receives_the_framed_bytes_before_the_write(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        seen = []
        engine.taps.append(
            lambda rt, payload: seen.append((rt, payload, engine.wal.appends))
        )
        record = audit_record(1.0)
        observation = obs(2.0, subject="mary")
        engine.log_audit(record)
        engine.log_observation(observation)
        engine.log_forget("mary")
        engine.close()
        assert [(rt, appends) for rt, _, appends in seen] == [
            (records.AUDIT, 0),
            (records.OBS, 1),
            (records.ERASE, 2),
        ]
        assert seen[0][1] == records.encode_audit(record)
        assert seen[1][1] == records.encode_observation(observation)
        framed = [
            frame.payload
            for path in list_segments(str(tmp_path))
            for frame in scan_segment(path).frames
        ]
        assert framed == [payload for _, payload, _ in seen]

    def test_oversized_record_reaches_no_tap(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        seen = []
        engine.taps.append(lambda rt, payload: seen.append(rt))
        engine.log_observation(obs(1.0))
        with pytest.raises(StorageError, match="exceeds frame limit"):
            engine.log_migration(
                {"migration_id": "m-1", "blob": "x" * MAX_PAYLOAD_BYTES}
            )
        assert seen == [records.OBS]  # no tap saw the unwritten record
        assert engine.wal.next_lsn == 2  # no LSN was spent on it
        engine.close()

    def test_storage_metrics_emitted(self, tmp_path):
        metrics = MetricsRegistry()
        engine = StorageEngine(str(tmp_path), metrics=metrics)
        engine.log_observation(obs(1.0))
        engine.log_audit(audit_record(1.0))
        assert metrics.total("storage_wal_appends_total", {"type": "obs"}) == 1
        assert metrics.total("storage_wal_appends_total", {"type": "audit"}) == 1
        assert metrics.total("storage_wal_bytes_total") > 0
        engine.compact()
        assert metrics.total("storage_compactions_total") == 1
        engine.close()


class TestDurableDatastore:
    def test_insert_is_logged_then_applied(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        datastore.insert(obs(1.0, subject="mary"))
        assert datastore.count() == 1
        assert engine.wal.appends == 1
        engine.close()
        state = replay_directory(str(tmp_path))
        assert state.datastore.count() == 1
        assert state.datastore.query(subject_id="mary")

    def test_guarded_failure_writes_nothing(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        datastore.install_fault_plane(lambda op, detail: True)
        with pytest.raises(StorageError):
            datastore.insert(obs(1.0))
        assert datastore.count() == 0
        assert engine.wal.appends == 0  # guard fires before the WAL
        engine.close()

    def test_crash_mid_append_leaves_memory_a_prefix_of_the_log(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        datastore.insert(obs(1.0))
        engine.install_fault_plane(lambda op, rt: "crash_mid_append")
        with pytest.raises(SimulatedCrash):
            datastore.insert(obs(2.0))
        # Memory missed the second insert; the log has it.  Memory is
        # the prefix, the log is the truth.
        assert datastore.count() == 1
        engine.close()
        state = replay_directory(str(tmp_path))
        assert state.datastore.count() == 2

    def test_unencodable_observation_reaches_nothing(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        seen = []
        engine.taps.append(lambda rt, payload: seen.append(rt))
        datastore.insert(obs(1.0))
        bad = Observation.create(
            sensor_id="s1",
            sensor_type="temperature",
            timestamp=2.0,
            space_id="r1",
            payload={"v": float("nan")},
        )
        with pytest.raises(StorageError):
            datastore.insert(bad)
        assert seen == [records.OBS]  # no tap saw the bad record
        assert engine.wal.next_lsn == 2  # no LSN was spent on it
        assert datastore.count() == 1  # nor was it applied in memory
        engine.close()
        state = replay_directory(str(tmp_path))
        assert state.datastore.count() == 1

    def test_forget_is_durable(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        for index in range(4):
            datastore.insert(obs(float(index), subject="mary"))
        assert datastore.forget_subject("mary") == 4
        engine.close()
        state = replay_directory(str(tmp_path))
        assert state.datastore.count() == 0
        assert state.report.erasures_applied == 1


class TestDurableAuditLog:
    def test_append_round_trips_through_recovery(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        audit = DurableAuditLog(engine)
        audit.append(audit_record(1.0))
        audit.append(audit_record(2.0))
        engine.close()
        state = replay_directory(str(tmp_path))
        assert list(state.audit) == list(audit)

    def test_served_heads_are_formatted_per_timestamp_and_sign(self, tmp_path):
        # A capture tick appends every record at one timestamp; the head
        # is reused for it, but never across 0.0 and -0.0.
        engine = StorageEngine(str(tmp_path))
        audit = DurableAuditLog(engine)
        payloads = []
        engine.taps.append(lambda rt, payload: payloads.append(payload))
        tail = records.audit_payload_tail(tuple(audit_record(1.0))[1:])
        stamps = [5.0, 5.0, 0.0, -0.0, -0.0, 0.0, 5.0, 7.5]
        for timestamp in stamps:
            audit.append(audit_record(timestamp), tail)
        assert payloads == [
            records.encode_audit(audit_record(timestamp)) for timestamp in stamps
        ]
        assert b'["audit",-0.0,' in payloads[3]
        engine.close()


class TestBatchReadsItsOwnWrites:
    """A read of the engine's directory inside a batch commits first."""

    def open(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        audit = DurableAuditLog(engine)
        datastore = DurableDatastore(engine)
        return engine, audit, datastore

    def stage(self, engine, audit, datastore):
        for index in range(3):
            datastore.insert(obs(float(index), subject="mary"))
            audit.append(audit_record(float(index)))
        assert engine.wal._staged  # nothing written yet

    def test_records_and_summary_see_every_staged_record(self, tmp_path):
        engine, audit, datastore = self.open(tmp_path)
        with engine.batch():
            self.stage(engine, audit, datastore)
            assert audit.records() == [audit_record(float(i)) for i in range(3)]
            assert audit.summary()["total"] == 3
            assert not engine.wal._staged
            audit.append(audit_record(3.0))
            assert len(audit.records(subject_id="mary")) == 4
        engine.close()

    def test_compact_folds_every_staged_record(self, tmp_path):
        engine, audit, datastore = self.open(tmp_path)
        with engine.batch():
            self.stage(engine, audit, datastore)
            report = engine.compact()
            assert report.audit_snapshotted == 3
            assert report.observations_snapshotted == 3
        engine.close()
        state = replay_directory(str(tmp_path))
        assert list(state.audit) == list(audit)
        assert state.datastore.count() == 3

    def test_close_writes_every_staged_record(self, tmp_path):
        engine, audit, datastore = self.open(tmp_path)
        with engine.batch():
            self.stage(engine, audit, datastore)
            engine.close()
        state = replay_directory(str(tmp_path))
        assert len(state.audit) == 3
        assert state.datastore.count() == 3
