"""Unit tests for the segmented write-ahead log."""

import contextlib
import os
import struct

import pytest

from repro.errors import SimulatedCrash, StorageError
from repro.storage.wal import (
    FRAME_HEADER,
    SEGMENT_HEADER,
    SEGMENT_MAGIC,
    WriteAheadLog,
    decode_frame,
    encode_frame,
    list_segments,
    scan_segment,
    segment_sequence,
)


class TestFrameCodec:
    def test_round_trip(self):
        frame_bytes = encode_frame(7, b"hello")
        frame, next_offset, reason = decode_frame(frame_bytes)
        assert frame is not None and reason == ""
        assert frame.lsn == 7
        assert frame.payload == b"hello"
        assert next_offset == len(frame_bytes)

    def test_empty_payload(self):
        frame, _, _ = decode_frame(encode_frame(1, b""))
        assert frame is not None and frame.payload == b""

    def test_header_layout(self):
        frame_bytes = encode_frame(3, b"xy")
        lsn, length, _crc = FRAME_HEADER.unpack_from(frame_bytes, 0)
        assert (lsn, length) == (3, 2)

    def test_short_header(self):
        assert decode_frame(b"\x00\x01") == (None, 0, "short-header")

    def test_short_payload(self):
        frame_bytes = encode_frame(1, b"payload")
        frame, offset, reason = decode_frame(frame_bytes[:-2])
        assert frame is None and offset == 0 and reason == "short-payload"

    def test_crc_mismatch(self):
        frame_bytes = bytearray(encode_frame(1, b"payload"))
        frame_bytes[-1] ^= 0xFF  # flip a payload bit
        frame, _, reason = decode_frame(bytes(frame_bytes))
        assert frame is None and reason == "crc-mismatch"

    def test_oversized_length_rejected_without_allocating(self):
        header = struct.pack(">QII", 1, 2**31, 0)
        frame, _, reason = decode_frame(header + b"x" * 8)
        assert frame is None and reason == "oversized-length"

    def test_bad_lsn_and_oversized_payload_raise_at_encode(self):
        with pytest.raises(StorageError):
            encode_frame(0, b"")
        with pytest.raises(StorageError):
            encode_frame(1, b"x" * (16 * 1024 * 1024 + 1))


class TestWriteAheadLog:
    def test_appends_assign_monotonic_lsns(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert [wal.append(b"a"), wal.append(b"b"), wal.append(b"c")] == [1, 2, 3]
        wal.close()

    def test_segment_rotation_at_byte_budget(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_bytes=64)
        for _ in range(10):
            wal.append(b"x" * 24)
        assert wal.segments_sealed >= 2
        assert len(wal.segment_paths()) == wal.segments_sealed + 1
        wal.close()

    def test_segment_header_magic(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"data")
        wal.close()
        with open(wal.active_path, "rb") as handle:
            magic, first_lsn = SEGMENT_HEADER.unpack(
                handle.read(SEGMENT_HEADER.size)
            )
        assert magic == SEGMENT_MAGIC and first_lsn == 1

    def test_reopen_resumes_lsn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_bytes=64)
        for index in range(8):
            wal.append(b"payload-%d" % index)
        wal.close()
        reopened = WriteAheadLog(str(tmp_path), segment_bytes=64)
        assert reopened.append(b"after") == 9
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"kept")
        wal.append(b"also kept")
        wal.close()
        with open(wal.active_path, "ab") as handle:
            handle.write(encode_frame(3, b"torn")[:9])
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.truncated_segments == 1
        assert reopened.append(b"fresh") == 3
        reopened.close()
        # The torn bytes were physically removed; appends resume in a
        # fresh segment and the LSN chain stays contiguous across both.
        first, second = list_segments(str(tmp_path))
        first_scan, second_scan = scan_segment(first), scan_segment(second)
        assert not first_scan.torn and not second_scan.torn
        assert [f.payload for f in first_scan.frames] == [b"kept", b"also kept"]
        assert [f.payload for f in second_scan.frames] == [b"fresh"]
        assert second_scan.first_lsn == first_scan.last_lsn + 1

    def test_segments_after_a_tear_are_dropped(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_bytes=64)
        for index in range(8):
            wal.append(b"payload-%d" % index)
        wal.close()
        first, second = list_segments(str(tmp_path))[:2]
        with open(first, "r+b") as handle:
            handle.seek(SEGMENT_HEADER.size + 4)
            handle.write(b"\xff\xff")  # corrupt the first frame
        reopened = WriteAheadLog(str(tmp_path), segment_bytes=64)
        assert not os.path.exists(second)
        # The first segment keeps only its header; LSNs restart at 1.
        assert reopened.append(b"fresh") == 1
        reopened.close()

    def test_scan_detects_lsn_discontinuity(self, tmp_path):
        path = str(tmp_path / "wal-00000001.seg")
        with open(path, "wb") as handle:
            handle.write(SEGMENT_HEADER.pack(SEGMENT_MAGIC, 1))
            handle.write(encode_frame(1, b"one"))
            handle.write(encode_frame(5, b"gap"))
        scan = scan_segment(path)
        assert scan.torn and scan.reason == "lsn-discontinuity"
        assert len(scan.frames) == 1

    def test_torn_write_fault_crashes_with_partial_frame(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"before")
        wal.install_fault_plane(lambda op, rt: "torn_write")
        with pytest.raises(SimulatedCrash):
            wal.append(b"doomed")
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.truncated_segments == 1
        assert reopened.next_lsn == 2  # the torn record was lost
        reopened.close()

    def test_crash_mid_append_leaves_durable_frame(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"before")
        wal.install_fault_plane(lambda op, rt: "crash_mid_append")
        with pytest.raises(SimulatedCrash):
            wal.append(b"durable")
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.next_lsn == 3  # the frame survived
        reopened.close()
        scan = scan_segment(list_segments(str(tmp_path))[0])
        assert scan.frames[-1].payload == b"durable"

    def test_removed_plane_stops_faulting(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        plane = lambda op, rt: "torn_write"  # noqa: E731
        wal.install_fault_plane(plane)
        wal.remove_fault_plane(plane)
        assert wal.append(b"fine") == 1
        wal.close()

    def test_segment_sequence_parsing(self):
        assert segment_sequence("/x/wal-00000042.seg") == 42
        with pytest.raises(StorageError):
            segment_sequence("/x/not-a-segment.txt")

    def test_too_small_budget_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(str(tmp_path), segment_bytes=8)


def _segment_bytes(directory) -> dict:
    """Segment file name -> its bytes."""
    files = {}
    for path in list_segments(str(directory)):
        with open(path, "rb") as handle:
            files[os.path.basename(path)] = handle.read()
    return files


class _CountingHandle:
    """Wraps a segment file handle, counting ``write`` and ``flush``."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0
        self.flushes = 0

    def write(self, data):
        self.writes += 1
        return self.handle.write(data)

    def flush(self):
        self.flushes += 1
        return self.handle.flush()

    def __getattr__(self, name):
        return getattr(self.handle, name)


class TestBatch:
    def test_outside_a_batch_every_append_is_written_and_flushed(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        counting = wal._handle = _CountingHandle(wal._handle)
        for index in range(3):
            wal.append(b"record-%d" % index)
            assert os.path.getsize(wal.active_path) == wal._active_bytes
        assert (counting.writes, counting.flushes) == (3, 3)
        wal.close()

    def test_a_batch_stages_its_frames_and_commits_them_in_one_write(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        size = os.path.getsize(wal.active_path)
        counting = wal._handle = _CountingHandle(wal._handle)
        with wal.batch():
            lsns = [wal.append(b"record-%d" % index) for index in range(5)]
            assert os.path.getsize(wal.active_path) == size
            assert wal.next_lsn == 6 and wal.appends == 5
        assert lsns == [1, 2, 3, 4, 5]
        assert (counting.writes, counting.flushes) == (1, 1)
        wal.close()
        frames = scan_segment(list_segments(str(tmp_path))[0]).frames
        assert [f.payload for f in frames] == [b"record-%d" % i for i in range(5)]

    def test_batches_nest_and_the_outermost_exit_commits(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        size = os.path.getsize(wal.active_path)
        with wal.batch():
            wal.append(b"outer")
            with wal.batch():
                wal.append(b"inner")
            assert os.path.getsize(wal.active_path) == size
        assert os.path.getsize(wal.active_path) == wal._active_bytes
        wal.close()

    def test_a_raising_batch_still_commits(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with pytest.raises(RuntimeError):
            with wal.batch():
                wal.append(b"kept")
                raise RuntimeError("the block failed")
        assert os.path.getsize(wal.active_path) == wal._active_bytes
        wal.close()

    def test_a_batch_writes_the_bytes_appends_outside_one_write(self, tmp_path):
        # Rotation inside a batch commits first, so segment boundaries
        # and LSNs do not move.
        payloads = [b"payload-%03d" % index for index in range(40)]
        plain = WriteAheadLog(str(tmp_path / "plain"), segment_bytes=128)
        for payload in payloads:
            plain.append(payload)
        plain.close()
        batched = WriteAheadLog(str(tmp_path / "batched"), segment_bytes=128)
        with batched.batch():
            for payload in payloads:
                batched.append(payload)
                assert len(b"".join(batched._staged)) <= 128
        batched.close()
        assert batched.segments_sealed == plain.segments_sealed > 1
        assert _segment_bytes(tmp_path / "batched") == _segment_bytes(tmp_path / "plain")

    def test_close_inside_a_batch_commits(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with wal.batch():
            wal.append(b"staged")
            wal.close()
        assert scan_segment(wal.active_path).frames[0].payload == b"staged"

    @pytest.mark.parametrize("verdict", ["torn_write", "crash_mid_append"])
    def test_a_simulated_crash_in_a_batch_leaves_the_unbatched_files(
        self, tmp_path, verdict
    ):
        def run(directory, batched):
            wal = WriteAheadLog(str(directory), segment_bytes=96)
            seen = [0]

            def plane(operation, record_type):
                seen[0] += 1
                return verdict if seen[0] == 7 else None

            wal.install_fault_plane(plane)
            with wal.batch() if batched else contextlib.nullcontext():
                with pytest.raises(SimulatedCrash):
                    for index in range(10):
                        wal.append(b"record-%d" % index)
                # What the crash left, before the batch exits.
                at_crash = _segment_bytes(directory)
            wal.close()
            assert _segment_bytes(directory) == at_crash
            return at_crash, wal.next_lsn

        assert run(tmp_path / "batched", True) == run(tmp_path / "plain", False)
