"""Durable storage engine: segmented WAL, snapshots, crash recovery.

See ``docs/STORAGE.md`` for the on-disk formats and the recovery
invariants this package guarantees.
"""

from repro.storage.durable import (
    DurableAuditLog,
    DurableDatastore,
    LogTap,
    StorageEngine,
)
from repro.storage.recovery import (
    RecoveredState,
    RecoveryReport,
    is_storage_directory,
    read_store,
    recover,
    replay_directory,
)
from repro.storage.snapshot import (
    CompactionReport,
    Manifest,
    compact_engine,
    read_manifest,
    write_manifest,
)
from repro.storage.wal import (
    DEFAULT_SEGMENT_BYTES,
    Frame,
    SegmentScan,
    WriteAheadLog,
    decode_frame,
    encode_frame,
    list_segments,
    scan_segment,
)

__all__ = [
    "CompactionReport",
    "DEFAULT_SEGMENT_BYTES",
    "DurableAuditLog",
    "DurableDatastore",
    "Frame",
    "LogTap",
    "Manifest",
    "RecoveredState",
    "RecoveryReport",
    "SegmentScan",
    "StorageEngine",
    "WriteAheadLog",
    "compact_engine",
    "decode_frame",
    "encode_frame",
    "is_storage_directory",
    "list_segments",
    "read_manifest",
    "read_store",
    "recover",
    "replay_directory",
    "scan_segment",
    "write_manifest",
]
