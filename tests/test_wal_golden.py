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
    "wal-00000001.seg": "a1c14a3a2efb9c7d3616f55f5be50813558ce3e8af6f69157d092720662299c9",
    "wal-00000002.seg": "1522d82b9ce19fc4c7ac9791be6545602900e048f9b4ece6a5430f0da4822412",
    "wal-00000003.seg": "6c6a62b82998a9a4dccff751deed9a139b827777627f714441d5600ad814d28c",
    "wal-00000004.seg": "8a36f8e20c5503063ac5a64121b7ede0f7ff8440745bfae2d291225ff7620da9",
    "wal-00000005.seg": "a0378408ed2b8f1097123af537f4aaf4aa73e3630b46cd7789a09c856ac292ff",
    "wal-00000006.seg": "0c98881377f71a4e3c15fab8b51b9508d4847b80f6871ac04fc7fef31a4d98d3",
    "wal-00000007.seg": "2e0f6d8c068bc18170423c992b445969e775d609434701bdd837264891b536a4",
    "wal-00000008.seg": "e72cabbbae25a0d4d6fd333a58d14fc38c7eb7e65ca04b87dbc9bd88c2f63d8e",
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
