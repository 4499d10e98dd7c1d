"""Crash recovery: snapshot-then-log replay.

Replay order is the durability contract in reverse:

1. read ``MANIFEST.json`` for the snapshot watermark LSN;
2. read the snapshot file at that watermark -- WAL frames holding the
   log's own records; a frame cut short at the end of the file is a
   torn tail (skipped and counted), any other bad frame is corruption
   and raises :class:`~repro.errors.StorageError`;
3. scan WAL segments in sequence order and take every frame whose LSN
   is greater than the watermark, stopping at the first torn frame or
   LSN discontinuity (everything after a tear is unreachable);
4. run the retention sweep, so observations that expired while the
   process was down are purged *before* the first query is served.

Steps 1-3 are one generator, :func:`read_store`, which yields every
durable record in order; replay applies each one (:class:`Replay`),
compaction applies all but the audit records, which it copies into
the next snapshot, and a subject access report counts decisions from
the audit records.

Replayed erase records physically drop the subject's earlier
observations from the rebuilt state -- recovery never resurrects
forgotten data, no matter where the crash landed.

The :class:`RecoveryReport` is deliberately path- and id-free: every
field is a count, an LSN, or a segment *name*, so two same-seed
crash+recover runs render byte-identical reports (the chaos
``--recover`` harness diffs them).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.enforcement.audit import AuditLog, audit_record_from_dict
from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.snapshot import read_manifest, snapshot_path
from repro.storage.wal import list_segments, read_segment
from repro.tippers.datastore import Datastore

#: Scan reasons that mean a snapshot's bytes simply ran out: the tear a
#: crash mid-write leaves.  Any other bad snapshot frame is corruption.
_TORN_TAIL_REASONS = ("short-header", "short-payload")


@dataclass
class RecoveryReport:
    """What one recovery pass did, in deterministic terms."""

    snapshot_lsn: int = 0
    last_lsn: int = 0
    frames_replayed: int = 0
    records_replayed: Dict[str, int] = field(default_factory=dict)
    segments_scanned: int = 0
    torn: bool = False
    torn_segment: str = ""
    torn_reason: str = ""
    snapshot_torn_tails: int = 0
    erasures_applied: int = 0
    erased_observations: int = 0
    observations_restored: int = 0
    audit_restored: int = 0
    preferences_restored: int = 0
    retention_purged: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "last_lsn": self.last_lsn,
            "frames_replayed": self.frames_replayed,
            "records_replayed": dict(self.records_replayed),
            "segments_scanned": self.segments_scanned,
            "torn": self.torn,
            "torn_segment": self.torn_segment,
            "torn_reason": self.torn_reason,
            "snapshot_torn_tails": self.snapshot_torn_tails,
            "erasures_applied": self.erasures_applied,
            "erased_observations": self.erased_observations,
            "observations_restored": self.observations_restored,
            "audit_restored": self.audit_restored,
            "preferences_restored": self.preferences_restored,
            "retention_purged": self.retention_purged,
        }

    def lines(self) -> List[str]:
        """A stable text rendering; byte-identical across same-seed runs."""
        by_type = ", ".join(
            "%s=%d" % (record_type, count)
            for record_type, count in sorted(self.records_replayed.items())
        )
        torn = "none"
        if self.torn:
            torn = "%s (%s)" % (self.torn_segment, self.torn_reason)
        return [
            "recovery: snapshot_lsn=%d last_lsn=%d frames_replayed=%d"
            % (self.snapshot_lsn, self.last_lsn, self.frames_replayed),
            "segments_scanned=%d torn=%s snapshot_torn_tails=%d"
            % (self.segments_scanned, torn, self.snapshot_torn_tails),
            "records: %s" % (by_type or "none"),
            "erasures_applied=%d erased_observations=%d"
            % (self.erasures_applied, self.erased_observations),
            "restored: observations=%d audit=%d preferences=%d"
            % (
                self.observations_restored,
                self.audit_restored,
                self.preferences_restored,
            ),
            "retention_purged=%d" % self.retention_purged,
        ]

    def to_text(self) -> str:
        return "".join(line + "\n" for line in self.lines())


@dataclass
class RecoveredState:
    """The rebuilt in-memory state plus its report."""

    datastore: Datastore
    audit: AuditLog
    preferences: List[Dict[str, Any]]
    report: RecoveryReport
    #: Cross-shard migration journal: ``migration_id`` -> the latest
    #: journaled phase record.  A rebalance coordinator consults this to
    #: resume (dest journal shows ``committed``) or re-run (journal
    #: stuck at ``copy``) an in-flight migration after a shard crash.
    migrations: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def is_storage_directory(directory: str) -> bool:
    """Whether ``directory`` looks like a storage-engine directory."""
    if not os.path.isdir(directory):
        return False
    if os.path.exists(os.path.join(directory, "MANIFEST.json")):
        return True
    return bool(list_segments(directory))


def read_store(
    directory: str, report: Optional[RecoveryReport] = None
) -> Iterator[Tuple[str, Dict[str, Any], bytes]]:
    """Snapshot-then-log: every durable record, as ``(type, data, payload)``.

    The snapshot's records come first, then each logged frame past the
    watermark, up to the first tear or LSN gap.  ``report`` (if given)
    is filled in as the records are read; only logged frames count
    toward its frame, record, LSN and tear fields.
    """
    if report is None:
        report = RecoveryReport()
    manifest = read_manifest(directory)
    report.snapshot_lsn = manifest.snapshot_lsn
    report.last_lsn = manifest.snapshot_lsn
    path = snapshot_path(directory, manifest.snapshot_lsn)
    if os.path.exists(path):
        scan, frames = read_segment(path)
        for frame in frames:
            yield records.decode_record(frame.payload) + (frame.payload,)
        if scan.torn:
            if scan.reason not in _TORN_TAIL_REASONS:
                raise StorageError(
                    "corrupt snapshot %s at byte %d: %s"
                    % (scan.name, scan.valid_bytes, scan.reason)
                )
            report.snapshot_torn_tails += 1

    expected_lsn = manifest.snapshot_lsn + 1
    for path in list_segments(directory):
        scan, frames = read_segment(path)
        report.segments_scanned += 1
        for frame in frames:
            if frame.lsn < expected_lsn:
                continue  # already folded into the snapshot
            if frame.lsn > expected_lsn:
                report.torn = True
                report.torn_segment = scan.name
                report.torn_reason = "lsn-gap"
                return
            record_type, data = records.decode_record(frame.payload)
            report.records_replayed[record_type] = (
                report.records_replayed.get(record_type, 0) + 1
            )
            report.frames_replayed += 1
            report.last_lsn = frame.lsn
            expected_lsn += 1
            yield record_type, data, frame.payload
        if scan.torn:
            report.torn = True
            report.torn_segment = scan.name
            report.torn_reason = scan.reason
            return


class Replay:
    """The state a replay rebuilds, one applied record at a time.

    ``datastore`` / ``audit`` may be durable instances; every apply is
    a base-class apply, so nothing is re-logged.  ``audit`` is None
    only for a caller that takes the audit records itself (compaction).
    """

    def __init__(self, datastore: Datastore, audit: Optional[AuditLog]) -> None:
        self.datastore = datastore
        self.audit = audit
        self.report = RecoveryReport()
        #: ``(user_id, preference_id)`` -> the latest preference dict.
        self.preferences: Dict[Tuple[Any, Any], Dict[str, Any]] = {}
        self.migrations: Dict[str, Dict[str, Any]] = {}

    def apply(self, record_type: str, data: Dict[str, Any]) -> None:
        datastore = self.datastore
        preferences = self.preferences
        if record_type == records.OBS:
            datastore._apply_insert(Observation.from_dict(data))
        elif record_type == records.ERASE:
            subject_id = data.get("subject_id")
            if not isinstance(subject_id, str):
                raise StorageError("erase record without subject_id")
            self.report.erasures_applied += 1
            self.report.erased_observations += datastore._apply_forget(subject_id)
            for key in [k for k in preferences if k[0] == subject_id]:
                del preferences[key]
            # An erasure replayed after a migration copy also strips the
            # journaled snapshot: a resumed migration must never restore
            # (resurrect) observations the subject asked to be forgotten.
            for entry in self.migrations.values():
                snapshot = entry.get("snapshot")
                if entry.get("user_id") == subject_id and isinstance(snapshot, dict):
                    snapshot["observations"] = []
                    entry["snapshot_erased"] = True
        elif record_type == records.AUDIT:
            AuditLog.append(self.audit, audit_record_from_dict(data))
        elif record_type == records.PREF:
            key = (data.get("user_id"), data.get("preference_id"))
            preferences[key] = data
        elif record_type == records.PREF_WITHDRAW_ALL:
            user_id = data.get("user_id")
            for key in [k for k in preferences if k[0] == user_id]:
                del preferences[key]
        elif record_type == records.MIGRATION:
            migration_id = data.get("migration_id")
            if not isinstance(migration_id, str) or not migration_id:
                raise StorageError("migration record without migration_id")
            # Latest phase per migration id wins: replay order is log order,
            # so the surviving entry is the furthest phase the shard durably
            # reached before the crash.
            self.migrations[migration_id] = dict(data)

    def ordered_preferences(self) -> List[Dict[str, Any]]:
        return [self.preferences[key] for key in sorted(self.preferences, key=str)]


def replay_directory(
    directory: str,
    into_datastore: Optional[Datastore] = None,
    into_audit: Optional[AuditLog] = None,
) -> RecoveredState:
    """Snapshot-then-log replay (no retention sweep; see :func:`recover`).

    ``into_datastore`` / ``into_audit`` may be durable instances; the
    replay uses base-class applies throughout, so nothing is re-logged.
    """
    replay = Replay(
        into_datastore if into_datastore is not None else Datastore(),
        into_audit if into_audit is not None else AuditLog(),
    )
    for record_type, data, _ in read_store(directory, replay.report):
        replay.apply(record_type, data)
    report = replay.report
    report.observations_restored = replay.datastore.count()
    report.audit_restored = len(replay.audit)
    report.preferences_restored = len(replay.preferences)
    return RecoveredState(
        datastore=replay.datastore,
        audit=replay.audit,
        preferences=replay.ordered_preferences(),
        report=report,
        migrations=replay.migrations,
    )


def recover(
    directory: str,
    into_datastore: Optional[Datastore] = None,
    into_audit: Optional[AuditLog] = None,
    retention_by_type: Optional[Dict[str, float]] = None,
    now: Optional[float] = None,
) -> RecoveredState:
    """Full recovery: replay, then sweep retention before serving reads.

    The sweep is part of recovery, not an afterthought: observations
    whose retention expired while the process was down must be gone
    before the first query runs against the recovered state.
    """
    if not is_storage_directory(directory):
        raise StorageError("%r is not a storage directory" % directory)
    state = replay_directory(
        directory, into_datastore=into_datastore, into_audit=into_audit
    )
    if retention_by_type and now is not None:
        state.report.retention_purged = state.datastore.sweep(
            now, retention_by_type
        )
    return state
