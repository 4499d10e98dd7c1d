"""WAL byte golden: the sha256 of every segment of a seeded DBH capture.

Four capture sweeps over the full DBH (200 seeded inhabitants, the
three catalog policies, compiled enforcement, capture enforcement on)
write-ahead-log every observation and every audited decision.  The
digests below pin those bytes: a change to enforcement, to the record
encoders or to WAL framing that moves a single byte fails here.

The run happens in a fresh interpreter because observation ids come
from a process-wide counter, so in-process bytes would depend on which
tests ran first.  After a *deliberate* change to the WAL bytes,
regenerate the digests with::

    PYTHONPATH=src python tests/test_wal_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TICKS = 4

#: segment file name -> sha256 of its bytes.
DIGESTS = {
    "wal-00000001.seg": "9c5bc96434cb19115a6324b7d5a157eae7ca4d8837ad95ba44d4f1c31373603f",
    "wal-00000002.seg": "5b87c73039cd14d0c8b5ec41402b824648ffc973666134ab7342a14b499d606b",
    "wal-00000003.seg": "ea1a8cd8706a34613f0baf10212d4f61162f5c036dbb252e320bcc52fb00be8b",
    "wal-00000004.seg": "9a321cfdf1a086dd934c451403b76a080ac623b8c119a49d2ae8389c378f72c9",
}


def capture_digests(directory: str) -> dict:
    """Run the seeded capture into ``directory``; segment digests."""
    from repro.bench.workloads import build_ingest, ingest_tick
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.durable import StorageEngine
    from repro.storage.wal import list_segments

    storage = StorageEngine(directory, metrics=MetricsRegistry())
    tippers, world = build_ingest(200, storage=storage)
    for tick in range(TICKS):
        ingest_tick(tippers, world, tick)
    storage.close()
    digests = {}
    for path in list_segments(directory):
        with open(path, "rb") as handle:
            digests[os.path.basename(path)] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_capture_wal_bytes_match_golden():
    with tempfile.TemporaryDirectory(prefix="repro-wal-golden-") as directory:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, __file__, directory],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout) == DIGESTS


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(capture_digests(sys.argv[1]), sort_keys=True))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-wal-golden-") as tmp:
            for name, digest in sorted(capture_digests(tmp).items()):
                print('    "%s": "%s",' % (name, digest))
