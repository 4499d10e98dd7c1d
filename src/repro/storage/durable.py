"""The storage engine and the durable store/log wrappers.

:class:`StorageEngine` owns one on-disk directory::

    <dir>/
      MANIFEST.json                   snapshot watermark (see snapshot.py)
      snapshot-<lsn>.seg              audit, observation and preference
                                      records at that LSN, WAL-framed
      wal-00000001.seg ...            WAL segments (last one active)

Everything that must survive a restart goes through ``log_*`` methods,
which append one record to the WAL *before* the in-memory apply --
write-ahead ordering is what makes the recovery invariants hold:

- an acknowledged mutation is durable (the frame was flushed first);
- a crash mid-append loses at most the record being written;
- an erasure, once acknowledged, can never be un-done by replay,
  because the erase record itself is in the log after the data.

:class:`DurableDatastore` and :class:`DurableAuditLog` are drop-in
subclasses of the in-memory structures that route every write through
the engine; the audit log keeps no records, only a reader of the WAL.
Recovery replays *around* them (base-class applies), and
``engine.replaying`` turns ``log_*`` into no-ops so replayed state is
not re-logged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.enforcement.audit import (
    AuditLog,
    AuditRecord,
    audit_record_from_dict,
)
from repro.core.policy.preference import UserPreference
from repro.core.policy.serialization import preference_to_dict
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.recovery import read_store
from repro.storage.wal import (
    DEFAULT_SEGMENT_BYTES,
    WalPlane,
    WriteAheadLog,
    check_payload_size,
)
from repro.tippers.datastore import Datastore

#: Observed by the chaos harness: called with ``(record_type, payload)``
#: for every record submitted for logging, with the exact bytes the WAL
#: frames, *before* the WAL write (so a crashed append is still observed
#: -- the submitted sequence is the reference the audit-prefix invariant
#: is checked against).
LogTap = Callable[[str, bytes], None]


class StorageEngine:
    """Durable storage for observations, audit, and preferences."""

    def __init__(
        self,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        from repro.storage.snapshot import read_manifest

        self.directory = directory
        self.metrics = metrics if metrics is not None else get_registry()
        manifest = read_manifest(directory)
        self.wal = WriteAheadLog(
            directory,
            segment_bytes=segment_bytes,
            start_lsn=manifest.snapshot_lsn + 1,
        )
        #: While True, ``log_*`` methods are no-ops (recovery replay).
        self.replaying = False
        self.taps: List[LogTap] = []
        self._m_appends: Dict[str, Any] = {
            record_type: self.metrics.counter(
                "storage_wal_appends_total", {"type": record_type}
            )
            for record_type in records.RECORD_TYPES
        }
        self._m_bytes = self.metrics.counter("storage_wal_bytes_total")
        self._m_sealed = self.metrics.counter("storage_wal_segments_sealed_total")

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def log(self, record_type: str, payload: bytes) -> Optional[int]:
        """Append one encoded record; returns its LSN (None if replaying).

        ``payload`` is the record's encoding by
        :mod:`repro.storage.records`.  With taps installed, its size is
        checked before any tap sees it, so a record the WAL cannot frame
        (a :class:`StorageError`) is seen by no tap and reaches no WAL
        (which refuses an oversized payload before it writes).
        """
        if self.replaying:
            return None
        taps = self.taps
        if taps:
            check_payload_size(payload)
            for tap in taps:
                tap(record_type, payload)
        wal = self.wal
        sealed_before = wal.segments_sealed
        lsn = wal.append(payload, record_type)
        # Direct .value bumps: this runs once per WAL record.
        self._m_appends[record_type].value += 1
        self._m_bytes.value += len(payload)
        if wal.segments_sealed != sealed_before:
            self._m_sealed.value += wal.segments_sealed - sealed_before
        return lsn

    def _log_record(self, record_type: str, data: Dict[str, Any]) -> Optional[int]:
        """Encode a cold-type record's ``data`` and log it."""
        if self.replaying:
            return None
        return self.log(record_type, records.encode_record(record_type, data))

    def log_observation(self, observation: Observation) -> Optional[int]:
        if self.replaying:
            return None
        return self.log(records.OBS, records.encode_observation(observation))

    def log_forget(self, subject_id: str) -> Optional[int]:
        return self._log_record(records.ERASE, {"subject_id": subject_id})

    def log_audit(self, record: AuditRecord) -> Optional[int]:
        if self.replaying:
            return None
        return self.log(records.AUDIT, records.encode_audit(record))

    def log_preference(self, preference: UserPreference) -> Optional[int]:
        return self._log_record(records.PREF, preference_to_dict(preference))

    def log_withdraw_all(self, user_id: str) -> Optional[int]:
        return self._log_record(records.PREF_WITHDRAW_ALL, {"user_id": user_id})

    def log_migration(self, data: Dict[str, Any]) -> Optional[int]:
        """Journal one phase of a cross-shard user migration.

        ``data`` carries ``migration_id``/``user_id``/``from``/``to``/
        ``phase`` (plus the frozen snapshot on the ``copy`` phase).
        Replay surfaces the latest phase per migration id so a restarted
        shard can resume an in-flight migration; a DSAR
        erasure replayed after the copy strips the journaled snapshot so
        erased observations can never be resurrected from the journal.
        """
        return self._log_record(records.MIGRATION, data)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(
        self,
        retention_by_type: Optional[Dict[str, float]] = None,
        now: Optional[float] = None,
    ) -> "Any":
        """Fold sealed segments into the snapshot; see snapshot.py."""
        from repro.storage.snapshot import compact_engine

        report = compact_engine(self, retention_by_type=retention_by_type, now=now)
        self.metrics.counter("storage_compactions_total").inc()
        return report

    # ------------------------------------------------------------------
    # Fault planes (chaos harness)
    # ------------------------------------------------------------------
    def install_fault_plane(self, plane: WalPlane) -> None:
        self.wal.install_fault_plane(plane)

    def remove_fault_plane(self, plane: WalPlane) -> None:
        self.wal.remove_fault_plane(plane)

    def close(self) -> None:
        self.wal.close()


class DurableDatastore(Datastore):
    """A datastore whose writes survive a crash.

    Write order per mutation: write-failure guard (the PR-3 fault
    plane), then WAL append, then the in-memory apply.  A guarded
    failure writes nothing; a crash during the WAL append leaves memory
    untouched, so the in-memory state is always a prefix of the log.
    """

    def __init__(self, engine: StorageEngine) -> None:
        super().__init__()
        self.engine = engine

    def insert(self, observation: Observation) -> None:
        self._guard_write("insert", observation.sensor_type)
        self.engine.log_observation(observation)
        self._apply_insert(observation)

    def forget_subject(self, subject_id: str) -> int:
        self._guard_write("forget", subject_id)
        self.engine.log_forget(subject_id)
        return self._apply_forget(subject_id)


class DurableAuditLog(AuditLog):
    """An audit log whose only copy of the trail is the WAL.

    It keeps a count, not records: iterating reads every ``audit``
    record back through ``read_store`` in log order, so the inherited
    queries see the whole trail.  ``len()`` counts the records appended
    or replayed.
    """

    def __init__(
        self, engine: StorageEngine, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self._bind_metrics(metrics)
        self.engine = engine
        self._count = 0

    def payload_tail(self, tail: tuple) -> Optional[bytes]:
        """The WAL payload bytes after the timestamp of ``(t,) + tail``."""
        return records.audit_payload_tail(tail)

    def append(
        self, record: AuditRecord, payload_tail: Optional[bytes] = None
    ) -> None:
        """Log ``record``, then count it.

        With the ``payload_tail`` of the record's compiled row and a
        finite ``float`` timestamp, the payload is the timestamp's head
        plus that tail, byte for byte what ``log_audit`` would encode;
        otherwise ``log_audit`` encodes it.
        """
        timestamp = record[0]
        if (
            payload_tail is not None
            and type(timestamp) is float
            and timestamp - timestamp == 0.0  # not NaN or infinite
        ):
            self.engine.log(
                records.AUDIT, records.AUDIT_HEAD % timestamp + payload_tail
            )
        else:
            self.engine.log_audit(record)
        self.restore(record)

    def restore(self, record: AuditRecord) -> None:
        """Count one record that is already in the log."""
        self._count += 1
        self._m_appends.value += 1
        self._m_records.value += 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[AuditRecord]:
        for record_type, data, _ in read_store(self.engine.directory):
            if record_type == records.AUDIT:
                yield audit_record_from_dict(data)
