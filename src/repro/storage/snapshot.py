"""Snapshot + compaction: folding sealed WAL segments away.

A snapshot is the materialized state at a *watermark* LSN, stored in
the WAL's own format as one file named by that LSN, plus
``MANIFEST.json`` pointing at it::

    {"format": 2, "snapshot_lsn": 1042}

``snapshot-<lsn>.seg`` is a segment header followed by CRC frames,
numbered from 1, whose payloads are the log's own records
(:mod:`repro.storage.records`): every ``audit`` record in log order,
then every ``obs`` record stream by stream, then every ``pref`` record
in key order.  Recovery reads it through the same frame scan and
per-record apply as the log (:func:`repro.storage.recovery.read_store`).

Compaction reads snapshot-then-log, applies observations, erasures and
preferences in memory, and copies each audit payload into the new
snapshot byte for byte as it goes -- the trail is never held in
memory, so no record of it is lost however long it grows.  It then
moves the manifest forward, and only then deletes what was folded.  A
crash at any point leaves either the old manifest (old snapshot +
segments intact: nothing lost) or the new manifest (new snapshot
complete: leftover files are garbage, collected by the next
compaction).  ``migration`` records are not carried into the
snapshot.

Erasure interaction -- the DSAR guarantee: an ``erase`` record in the
log makes the replay *physically drop* every earlier observation of
that subject, so after compaction the erased data exists nowhere on
disk: not in the snapshot (it was folded out) and not in the segments
(they were deleted).  Recovery can therefore never resurrect it.

Retention interaction: when given the building's retention map and the
current time, compaction sweeps expired observations out of the new
snapshot as well.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.storage import records
from repro.storage.wal import SEGMENT_HEADER, SEGMENT_MAGIC, encode_frame

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = 2

SNAPSHOT_PATTERN = "snapshot-%016d.seg"


@dataclass(frozen=True)
class Manifest:
    """The durable watermark: state at ``snapshot_lsn`` is snapshotted."""

    snapshot_lsn: int = 0
    format: int = MANIFEST_FORMAT

    def to_dict(self) -> Dict[str, Any]:
        return {"format": self.format, "snapshot_lsn": self.snapshot_lsn}


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def read_manifest(directory: str) -> Manifest:
    """The directory's manifest; a missing file means a fresh store."""
    path = manifest_path(directory)
    if not os.path.exists(path):
        return Manifest()
    try:
        with open(path) as handle:
            data = json.load(handle)
        manifest = Manifest(
            snapshot_lsn=int(data["snapshot_lsn"]), format=int(data["format"])
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise StorageError("corrupt manifest %s: %s" % (path, exc)) from None
    if manifest.format != MANIFEST_FORMAT:
        raise StorageError(
            "unsupported storage format %d in %s" % (manifest.format, path)
        )
    if manifest.snapshot_lsn < 0:
        raise StorageError("negative snapshot_lsn in %s" % path)
    return manifest


def write_manifest(directory: str, manifest: Manifest) -> None:
    """Atomically persist ``manifest`` (temp file + rename)."""
    path = manifest_path(directory)
    temp_path = path + ".tmp"
    with open(temp_path, "w") as handle:
        json.dump(manifest.to_dict(), handle, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)


def snapshot_path(directory: str, snapshot_lsn: int) -> str:
    """The snapshot file for a watermark LSN."""
    return os.path.join(directory, SNAPSHOT_PATTERN % snapshot_lsn)


class SnapshotWriter:
    """One snapshot file being written, frame by frame.

    Frames go to a temp file; :meth:`commit` renames it into place, so
    a snapshot only ever appears under its final name complete.  No
    fault plane sees these writes: they are not WAL appends.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.temp_path = os.path.join(directory, "snapshot.seg.tmp")
        self.frames = 0
        self._handle = open(self.temp_path, "wb")
        self._handle.write(SEGMENT_HEADER.pack(SEGMENT_MAGIC, 1))

    def write(self, payload: bytes) -> None:
        self.frames += 1
        self._handle.write(encode_frame(self.frames, payload))

    def commit(self, snapshot_lsn: int) -> None:
        """Close the file and rename it to the watermark's snapshot name."""
        self._handle.close()
        os.replace(self.temp_path, snapshot_path(self.directory, snapshot_lsn))

    def discard(self) -> None:
        self._handle.close()
        os.remove(self.temp_path)


@dataclass
class CompactionReport:
    """What one compaction pass folded."""

    snapshot_lsn: int = 0
    segments_folded: int = 0
    frames_folded: int = 0
    observations_snapshotted: int = 0
    audit_snapshotted: int = 0
    preferences_snapshotted: int = 0
    erasures_folded: int = 0
    erased_observations_dropped: int = 0
    retention_purged: int = 0
    obsolete_files_removed: int = 0
    folded_segments: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "segments_folded": self.segments_folded,
            "frames_folded": self.frames_folded,
            "observations_snapshotted": self.observations_snapshotted,
            "audit_snapshotted": self.audit_snapshotted,
            "preferences_snapshotted": self.preferences_snapshotted,
            "erasures_folded": self.erasures_folded,
            "erased_observations_dropped": self.erased_observations_dropped,
            "retention_purged": self.retention_purged,
            "obsolete_files_removed": self.obsolete_files_removed,
            "folded_segments": list(self.folded_segments),
        }


def _collect_garbage(directory: str, keep_lsn: int, report: CompactionReport) -> None:
    """Delete snapshot files for watermarks other than ``keep_lsn``."""
    keep = os.path.basename(snapshot_path(directory, keep_lsn))
    for name in sorted(os.listdir(directory)):
        if name.startswith("snapshot-") and name.endswith(".seg") and name != keep:
            os.remove(os.path.join(directory, name))
            report.obsolete_files_removed += 1


def compact_engine(
    engine: Any,
    retention_by_type: Optional[Dict[str, float]] = None,
    now: Optional[float] = None,
) -> CompactionReport:
    """Fold the engine's sealed segments into a fresh snapshot.

    ``engine`` is a :class:`~repro.storage.durable.StorageEngine`
    (duck-typed to avoid an import cycle).  The active segment is
    rotated first, so every frame written so far is folded and the
    post-compaction log starts empty.
    """
    from repro.storage.recovery import Replay, read_store
    from repro.tippers.datastore import Datastore

    directory = engine.directory
    engine.wal.rotate()
    replay = Replay(Datastore(), audit=None)
    report = CompactionReport()
    writer = SnapshotWriter(directory)
    try:
        for record_type, data, payload in read_store(directory, replay.report):
            if record_type == records.AUDIT:
                writer.write(payload)
            else:
                replay.apply(record_type, data)
        report.audit_snapshotted = writer.frames
        datastore = replay.datastore
        if retention_by_type and now is not None:
            report.retention_purged = datastore.sweep(now, retention_by_type)
        for sensor_type in datastore.stream_names():
            for observation in datastore.query(sensor_type=sensor_type):
                writer.write(records.encode_observation(observation))
        report.observations_snapshotted = datastore.count()
        preferences = replay.ordered_preferences()
        for data in preferences:
            writer.write(records.encode_record(records.PREF, data))
        report.preferences_snapshotted = len(preferences)
        new_lsn = max(replay.report.last_lsn, replay.report.snapshot_lsn)
        writer.commit(new_lsn)
    except BaseException:
        writer.discard()
        raise
    report.snapshot_lsn = new_lsn
    report.frames_folded = replay.report.frames_replayed
    report.erasures_folded = replay.report.erasures_applied
    report.erased_observations_dropped = replay.report.erased_observations
    write_manifest(directory, Manifest(snapshot_lsn=new_lsn))

    # The watermark has moved: everything it folded is now garbage.
    for path in engine.wal.sealed_paths():
        report.folded_segments.append(os.path.basename(path))
        os.remove(path)
    report.segments_folded = len(report.folded_segments)
    _collect_garbage(directory, new_lsn, report)
    return report
