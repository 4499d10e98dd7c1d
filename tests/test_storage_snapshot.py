"""Unit tests for manifests, snapshots, and compaction."""

import json
import os

import pytest

from repro.core.enforcement import audit
from repro.core.enforcement.audit import AuditRecord
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.durable import DurableAuditLog, DurableDatastore, StorageEngine
from repro.storage.recovery import read_store, replay_directory
from repro.storage.snapshot import (
    Manifest,
    manifest_path,
    read_manifest,
    snapshot_path,
    write_manifest,
)
from repro.storage.wal import encode_frame, list_segments, scan_segment


def audit_record(timestamp, subject="mary"):
    return AuditRecord(
        timestamp=timestamp,
        requester_id="svc",
        phase=DecisionPhase.SHARING,
        category="location",
        subject_id=subject,
        space_id="r1",
        effect=Effect.ALLOW,
        granularity=GranularityLevel.PRECISE,
        reasons=("r",),
        notify_user=False,
    )


def obs(timestamp, subject=None, sensor_type="temperature"):
    return Observation.create(
        sensor_id="s1",
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id="r1",
        payload={"v": timestamp},
        subject_id=subject,
    )


class TestManifest:
    def test_missing_manifest_means_fresh_store(self, tmp_path):
        assert read_manifest(str(tmp_path)) == Manifest(snapshot_lsn=0)

    def test_round_trip(self, tmp_path):
        write_manifest(str(tmp_path), Manifest(snapshot_lsn=42))
        assert read_manifest(str(tmp_path)).snapshot_lsn == 42

    def test_corrupt_manifest_raises(self, tmp_path):
        with open(manifest_path(str(tmp_path)), "w") as handle:
            handle.write("not json")
        with pytest.raises(StorageError):
            read_manifest(str(tmp_path))

    def test_unsupported_format_raises(self, tmp_path):
        with open(manifest_path(str(tmp_path)), "w") as handle:
            json.dump({"format": 99, "snapshot_lsn": 1}, handle)
        with pytest.raises(StorageError):
            read_manifest(str(tmp_path))

    def test_write_is_atomic(self, tmp_path):
        write_manifest(str(tmp_path), Manifest(snapshot_lsn=1))
        assert not os.path.exists(manifest_path(str(tmp_path)) + ".tmp")


class TestPreferenceSnapshots:
    def snapshot(self, tmp_path, prefs):
        engine = StorageEngine(str(tmp_path))
        for data in prefs:
            engine.log(records.PREF, data)
        report = engine.compact()
        engine.close()
        assert report.preferences_snapshotted == len(prefs)
        return snapshot_path(str(tmp_path), report.snapshot_lsn)

    def test_round_trip(self, tmp_path):
        prefs = [{"user_id": "mary", "preference_id": "p1", "effect": "deny"}]
        self.snapshot(tmp_path, prefs)
        assert replay_directory(str(tmp_path)).preferences == prefs

    def test_torn_final_line_tolerated(self, tmp_path):
        path = self.snapshot(tmp_path, [{"user_id": "mary", "preference_id": "p1"}])
        with open(path, "ab") as handle:
            handle.write(encode_frame(2, b'["pref",{"user_id":"bo"}]')[:20])
        state = replay_directory(str(tmp_path))
        assert len(state.preferences) == 1
        assert state.report.snapshot_torn_tails == 1


class TestCompaction:
    def make_engine(self, tmp_path, segment_bytes=256):
        engine = StorageEngine(str(tmp_path), segment_bytes=segment_bytes)
        return engine, DurableDatastore(engine), DurableAuditLog(engine)

    def test_compaction_folds_sealed_segments(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        for index in range(20):
            datastore.insert(obs(float(index)))
        report = engine.compact()
        assert report.segments_folded > 0
        assert report.observations_snapshotted == 20
        assert report.snapshot_lsn == 20
        assert read_manifest(str(tmp_path)).snapshot_lsn == 20
        # Only the fresh active segment remains, beside one snapshot.
        assert list_segments(str(tmp_path)) == [engine.wal.active_path]
        assert sorted(os.listdir(str(tmp_path))) == [
            "MANIFEST.json",
            os.path.basename(snapshot_path(str(tmp_path), 20)),
            os.path.basename(engine.wal.active_path),
        ]
        engine.close()

    def test_compaction_physically_drops_erased_data(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        for index in range(10):
            datastore.insert(obs(float(index), subject="mary"))
        datastore.forget_subject("mary")
        report = engine.compact()
        assert report.erasures_folded == 1
        assert report.erased_observations_dropped == 10
        engine.close()
        # Grep the whole directory: no file may still contain the
        # erased subject's id.
        for name in os.listdir(str(tmp_path)):
            with open(os.path.join(str(tmp_path), name), "rb") as handle:
                assert b"mary" not in handle.read(), name

    def test_compaction_honors_retention(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        datastore.insert(obs(10.0))
        datastore.insert(obs(1000.0))
        report = engine.compact(retention_by_type={"temperature": 100.0}, now=1050.0)
        assert report.retention_purged == 1
        assert report.observations_snapshotted == 1
        engine.close()

    def test_second_compaction_collects_old_snapshot(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        datastore.insert(obs(1.0))
        first = engine.compact()
        datastore.insert(obs(2.0))
        second = engine.compact()
        assert second.snapshot_lsn > first.snapshot_lsn
        # One snapshot file per generation.
        assert second.obsolete_files_removed == 1
        assert not os.path.exists(snapshot_path(str(tmp_path), first.snapshot_lsn))
        engine.close()

    def test_compaction_is_idempotent_when_idle(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        datastore.insert(obs(1.0))
        first = engine.compact()
        second = engine.compact()
        assert second.snapshot_lsn == first.snapshot_lsn
        assert second.frames_folded == 0
        engine.close()


class TestAuditTrailSurvivesCompaction:
    """Compaction copies the whole durable audit trail, not the window."""

    def test_more_records_than_the_window_survive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(audit, "AUDIT_WINDOW", 100)
        engine = StorageEngine(str(tmp_path), segment_bytes=4096)
        log = DurableAuditLog(engine)
        appended = [audit_record(float(index)) for index in range(250)]
        for record in appended:
            log.append(record)
        assert len(log) < len(appended)  # the in-memory window dropped some
        report = engine.compact()
        assert report.audit_snapshotted == len(appended)
        # A second generation carries the trail forward byte for byte.
        log.append(audit_record(250.0))
        appended.append(audit_record(250.0))
        assert engine.compact().audit_snapshotted == len(appended)
        engine.close()
        payloads = [
            payload
            for record_type, _, payload in read_store(str(tmp_path))
            if record_type == records.AUDIT
        ]
        assert payloads == [records.encode_audit(record) for record in appended]

    def test_snapshot_frames_are_numbered_from_one(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        DurableAuditLog(engine).append(audit_record(1.0))
        DurableDatastore(engine).insert(obs(2.0))
        report = engine.compact()
        engine.close()
        scan = scan_segment(snapshot_path(str(tmp_path), report.snapshot_lsn))
        assert [frame.lsn for frame in scan.frames] == [1, 2]
        assert not scan.torn

    def test_corrupt_snapshot_header_raises(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        DurableDatastore(engine).insert(obs(1.0))
        report = engine.compact()
        engine.close()
        with open(snapshot_path(str(tmp_path), report.snapshot_lsn), "r+b") as handle:
            handle.write(b"NOTAWAL!")
        with pytest.raises(StorageError):
            replay_directory(str(tmp_path))
