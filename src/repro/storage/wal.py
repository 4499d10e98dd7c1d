"""Segmented append-only write-ahead log.

The WAL is the durability primitive under the storage engine: every
mutation (observation insert, subject erasure, audit append, preference
change) becomes one CRC-framed record appended to the active segment
*before* the in-memory state changes.  A crash at any byte boundary
loses at most the tail record being written; it can never corrupt what
was already acknowledged.

Frame format (all integers big-endian)::

    offset  size  field
    0       8     LSN (u64) -- log sequence number, monotonically +1
    8       4     payload length (u32)
    12      4     CRC32 of the 12 header bytes above + the payload
    16      n     payload (opaque bytes; the engine stores JSON records)

Segment files are named ``wal-%08d.seg`` by sequence number and begin
with a 16-byte header: the magic ``RPWAL001`` followed by the first LSN
the segment holds (u64).  A segment is *sealed* once the log rotates
past it (the active segment exceeded ``segment_bytes``); sealed
segments are immutable and are what compaction folds into snapshots.

Torn-tail semantics: a reader (:func:`scan_segment`) stops at the first
frame whose header is short, whose payload is short, whose CRC
mismatches, or whose LSN breaks the +1 chain, and reports the prefix of
valid frames plus where the tear starts.  :class:`WriteAheadLog`
physically truncates that tear when it reopens a directory, so new
appends extend a valid log.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulatedCrash, StorageError

SEGMENT_MAGIC = b"RPWAL001"
SEGMENT_HEADER = struct.Struct(">8sQ")
FRAME_HEADER = struct.Struct(">QII")
FRAME_HEADER_FORMAT = ">QII"
#: The header bytes the CRC covers: LSN and payload length.
_FRAME_PREFIX = struct.Struct(">QI")
# Bound once for the append path.
_pack_header = FRAME_HEADER.pack
_pack_prefix = _FRAME_PREFIX.pack
_crc32 = zlib.crc32
_HEADER_SIZE = FRAME_HEADER.size

#: Frames above this payload size are rejected at append time and
#: treated as tears at read time (a corrupted length field must not
#: make the reader allocate gigabytes).
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

#: Default byte budget per segment before the log rotates.
DEFAULT_SEGMENT_BYTES = 256 * 1024

SEGMENT_PATTERN = "wal-%08d.seg"

#: A WAL-level interception point: called with the operation (always
#: ``"append"``) and the record type being appended; returning a fault
#: kind value (``"torn_write"`` / ``"crash_mid_append"``) makes the
#: append crash the simulated process, leaving a partial or complete
#: frame behind for recovery to handle.
WalPlane = Callable[[str, str], Optional[str]]


def check_payload_size(payload: bytes) -> None:
    """Raise :class:`StorageError` if ``payload`` is too big for a frame."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise StorageError("payload of %d bytes exceeds frame limit" % len(payload))


def encode_frame(lsn: int, payload: bytes) -> bytes:
    """One wire frame for ``payload`` at ``lsn``.

    The CRC runs over the 12 prefix bytes and then the payload, in one
    pass and without first copying the two together.
    """
    if lsn < 1:
        raise StorageError("LSN must be >= 1, got %d" % lsn)
    check_payload_size(payload)
    length = len(payload)
    crc = zlib.crc32(payload, zlib.crc32(_FRAME_PREFIX.pack(lsn, length)))
    return FRAME_HEADER.pack(lsn, length, crc) + payload


def decode_frame(buffer: bytes, offset: int = 0) -> Tuple[Optional["Frame"], int, str]:
    """Decode one frame at ``offset``; never raises on bad bytes.

    Returns ``(frame, next_offset, reason)``.  ``frame`` is ``None``
    when the bytes at ``offset`` are not a complete valid frame, with
    ``reason`` naming why (``short-header``, ``oversized-length``,
    ``short-payload``, ``crc-mismatch``); ``next_offset`` then equals
    ``offset`` (the tear starts here).
    """
    if offset + FRAME_HEADER.size > len(buffer):
        return None, offset, "short-header"
    lsn, length, crc = FRAME_HEADER.unpack_from(buffer, offset)
    if length > MAX_PAYLOAD_BYTES:
        return None, offset, "oversized-length"
    start = offset + FRAME_HEADER.size
    end = start + length
    if end > len(buffer):
        return None, offset, "short-payload"
    payload = buffer[start:end]
    expected = zlib.crc32(buffer[offset:offset + 12] + payload) & 0xFFFFFFFF
    if crc != expected:
        return None, offset, "crc-mismatch"
    return Frame(lsn=lsn, payload=payload), end, ""


@dataclass(frozen=True)
class Frame:
    """One decoded WAL record."""

    lsn: int
    payload: bytes


@dataclass
class SegmentScan:
    """The readable prefix of one segment file."""

    path: str
    first_lsn: int
    frames: List[Frame] = field(default_factory=list)
    valid_bytes: int = 0
    torn: bool = False
    reason: str = ""

    @property
    def name(self) -> str:
        return os.path.basename(self.path)

    @property
    def last_lsn(self) -> int:
        return self.frames[-1].lsn if self.frames else self.first_lsn - 1


def segment_path(directory: str, sequence: int) -> str:
    return os.path.join(directory, SEGMENT_PATTERN % sequence)


def segment_sequence(path: str) -> int:
    """The sequence number encoded in a segment file name."""
    name = os.path.basename(path)
    if not (name.startswith("wal-") and name.endswith(".seg")):
        raise StorageError("not a segment file name: %r" % name)
    try:
        return int(name[4:-4])
    except ValueError:
        raise StorageError("not a segment file name: %r" % name) from None


def list_segments(directory: str) -> List[str]:
    """Segment paths under ``directory``, in sequence order."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    paths = [
        os.path.join(directory, name)
        for name in names
        if name.startswith("wal-") and name.endswith(".seg")
    ]
    return sorted(paths, key=segment_sequence)


def read_segment(path: str) -> Tuple[SegmentScan, Iterator[Frame]]:
    """Open one segment for a lazy scan: ``(scan, frames)``.

    ``frames`` yields the valid frame prefix one frame at a time, read
    through a memory map, so a large file (a snapshot) is never copied
    into memory whole.  ``scan`` is filled in as the frames are read:
    its ``valid_bytes``, ``torn`` and ``reason`` are final once
    ``frames`` is exhausted (``scan.frames`` stays empty).
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size < SEGMENT_HEADER.size:
            scan = SegmentScan(path=path, first_lsn=0, torn=True,
                               reason="short-segment-header")
            return scan, iter(())
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    magic, first_lsn = SEGMENT_HEADER.unpack_from(buffer, 0)
    if magic != SEGMENT_MAGIC:
        buffer.close()
        return SegmentScan(path=path, first_lsn=0, torn=True, reason="bad-magic"), iter(())
    scan = SegmentScan(path=path, first_lsn=first_lsn, valid_bytes=SEGMENT_HEADER.size)
    return scan, _frames(buffer, scan)


def _frames(buffer: mmap.mmap, scan: SegmentScan) -> Iterator[Frame]:
    """Decode ``buffer``'s frames in LSN order, noting the tear in ``scan``."""
    try:
        offset = scan.valid_bytes
        expected = scan.first_lsn
        while offset < len(buffer):
            frame, next_offset, reason = decode_frame(buffer, offset)
            if frame is None or frame.lsn != expected:
                scan.torn = True
                scan.reason = reason or "lsn-discontinuity"
                return
            scan.valid_bytes = offset = next_offset
            expected += 1
            yield frame
    finally:
        buffer.close()


def scan_segment(path: str) -> SegmentScan:
    """Read the valid frame prefix of one segment; never raises on torn bytes."""
    scan, frames = read_segment(path)
    scan.frames = list(frames)
    return scan


class WriteAheadLog:
    """The append side of the log: one active segment, sealed history.

    Opening a directory with existing segments resumes the log: the
    torn tail of the last segment (if any) is physically truncated,
    segments orphaned *after* a tear are deleted (their LSNs are
    unreachable), and appends continue from the next LSN.
    """

    def __init__(
        self,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_lsn: int = 1,
    ) -> None:
        if segment_bytes < SEGMENT_HEADER.size + FRAME_HEADER.size:
            raise StorageError("segment_bytes of %d is too small" % segment_bytes)
        if start_lsn < 1:
            raise StorageError("LSN must be >= 1, got %d" % start_lsn)
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.appends = 0
        self.bytes_written = 0
        self.segments_sealed = 0
        self.truncated_frames = 0
        self.truncated_segments = 0
        self._planes: List[WalPlane] = []
        os.makedirs(directory, exist_ok=True)
        self._resume(start_lsn)

    # ------------------------------------------------------------------
    # Opening / resuming
    # ------------------------------------------------------------------
    def _resume(self, start_lsn: int) -> None:
        next_lsn = start_lsn
        next_sequence = 1
        torn_seen = False
        for path in list_segments(self.directory):
            sequence = segment_sequence(path)
            next_sequence = max(next_sequence, sequence + 1)
            if torn_seen:
                # Frames past a tear are unreachable; drop the file.
                os.remove(path)
                self.truncated_segments += 1
                continue
            scan = scan_segment(path)
            if scan.frames:
                next_lsn = max(next_lsn, scan.last_lsn + 1)
            if scan.torn:
                torn_seen = True
                self.truncated_segments += 1
                if scan.valid_bytes <= SEGMENT_HEADER.size and not scan.frames:
                    os.remove(path)
                else:
                    with open(path, "ab") as handle:
                        handle.truncate(scan.valid_bytes)
        self.next_lsn = next_lsn
        self._sequence = next_sequence
        self._open_segment()

    def _open_segment(self) -> None:
        self._active_path = segment_path(self.directory, self._sequence)
        self._handle = open(self._active_path, "ab")
        if self._handle.tell() == 0:
            self._handle.write(SEGMENT_HEADER.pack(SEGMENT_MAGIC, self.next_lsn))
            self._handle.flush()
        self._active_bytes = self._handle.tell()

    # ------------------------------------------------------------------
    # Fault planes
    # ------------------------------------------------------------------
    def install_fault_plane(self, plane: WalPlane) -> None:
        """Attach a crash plane (see :data:`WalPlane`)."""
        self._planes.append(plane)

    def remove_fault_plane(self, plane: WalPlane) -> None:
        if plane in self._planes:
            self._planes.remove(plane)

    def _consult_planes(self, record_type: str) -> Optional[str]:
        for plane in self._planes:
            verdict = plane("append", record_type)
            if verdict:
                return verdict
        return None

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, payload: bytes, record_type: str = "") -> int:
        """Durably append ``payload``; returns its LSN.

        An oversized payload is refused before anything else happens.
        An installed fault plane may turn the append into a simulated
        crash: ``torn_write`` leaves a partial frame on disk,
        ``crash_mid_append`` leaves the complete frame on disk, and both
        raise :class:`~repro.errors.SimulatedCrash` *before* the caller
        can apply the record to in-memory state.

        The frame is :func:`encode_frame`'s, built inline: this runs
        once per WAL record.
        """
        length = len(payload)
        if length > MAX_PAYLOAD_BYTES:
            check_payload_size(payload)
        verdict = self._consult_planes(record_type) if self._planes else None
        lsn = self.next_lsn
        frame = _pack_header(
            lsn, length, _crc32(payload, _crc32(_pack_prefix(lsn, length)))
        ) + payload
        size = length + _HEADER_SIZE
        if self._active_bytes + size > self.segment_bytes and \
                self._active_bytes > SEGMENT_HEADER.size:
            self.rotate()
        handle = self._handle
        if verdict == "torn_write":
            # A crash mid-write: only a prefix of the frame reaches disk.
            handle.write(frame[: max(1, size // 2)])
            handle.flush()
            raise SimulatedCrash(
                "torn write at lsn %d (record type %r)" % (lsn, record_type)
            )
        handle.write(frame)
        handle.flush()
        if verdict == "crash_mid_append":
            # The frame is durable but the in-memory apply never happens.
            raise SimulatedCrash(
                "crash after append at lsn %d (record type %r)" % (lsn, record_type)
            )
        self.next_lsn = lsn + 1
        self.appends += 1
        self.bytes_written += size
        self._active_bytes += size
        return lsn

    def rotate(self) -> None:
        """Seal the active segment and open the next one."""
        self._handle.close()
        if self._active_bytes > SEGMENT_HEADER.size:
            self.segments_sealed += 1
            self._sequence += 1
        else:
            # Nothing was written; reuse the empty file as the next
            # active segment instead of leaving empty seals around.
            os.remove(self._active_path)
        self._open_segment()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_path(self) -> str:
        return self._active_path

    def segment_paths(self) -> List[str]:
        return list_segments(self.directory)

    def sealed_paths(self) -> List[str]:
        return [p for p in self.segment_paths() if p != self._active_path]

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()
