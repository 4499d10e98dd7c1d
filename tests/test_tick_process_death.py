"""A real process death in the middle of a batched capture tick.

``TIPPERS.tick`` stages its WAL frames and writes them with one commit
when it ends, so a process that dies mid-tick loses every frame staged
since the last commit.  None of them was acknowledged: the tick never
returned.  This pins down what that contract may lose.  A child
process runs the compact building, taps every record submitted for
logging, and calls ``os._exit`` from a WAL plane at the ``k``-th append
of its second tick.  The parent then checks that:

- the directory holds a prefix of the submitted records, and at least
  every record of the first tick;
- the lost records are exactly the frames staged since the last commit
  (the tick's start, or the last segment rotation inside it) plus the
  ``k``-th record, whose append the process died in;
- ``TIPPERS.recover`` succeeds, and the recovered audit trail is the
  submitted one without the lost audit records.

The child is this file run as a script (``python
tests/test_tick_process_death.py <dir> <k> <out.json>``); it dies with
exit status :data:`DIED` and signals no other process.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from typing import Any, List, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SEED = 5
POPULATION = 4
ROOMS_PER_FLOOR = 3
SEGMENT_BYTES = 2048
DIED = 17


def tick_time(tick: int) -> float:
    return 43200.0 + 60.0 * tick


def build(directory: str) -> Tuple[Any, Any, list]:
    from repro.obs.metrics import MetricsRegistry
    from repro.simulation.harness import build_compact_building
    from repro.storage.durable import StorageEngine

    metrics = MetricsRegistry()
    storage = StorageEngine(directory, segment_bytes=SEGMENT_BYTES, metrics=metrics)
    tippers, inhabitants = build_compact_building(
        "bt", "Batch Labs", POPULATION, SEED,
        rooms_per_floor=ROOMS_PER_FLOOR, metrics=metrics, storage=storage,
    )
    return tippers, storage, inhabitants


def child(directory: str, nth: int, out: str) -> None:
    """Tick until the ``nth`` WAL append of the second tick, then die."""
    from repro.simulation.mobility import BuildingWorld

    tippers, storage, inhabitants = build(directory)
    world = BuildingWorld(tippers.spatial, inhabitants, seed=SEED)
    tapped: List[List[str]] = []
    storage.taps.append(lambda rt, payload: tapped.append([rt, payload.hex()]))
    state = {"tick": 0, "appends": 0, "first_tick": 0}

    def die_mid_tick(operation: str, record_type: str) -> None:
        if state["tick"] != 1:
            return None
        state["appends"] += 1
        if state["appends"] == nth:
            report = {
                "tapped": tapped,
                "first_tick": state["first_tick"],
                "staged": len(storage.wal._staged),
            }
            with open(out, "w") as handle:
                json.dump(report, handle)
            os._exit(DIED)
        return None

    storage.install_fault_plane(die_mid_tick)
    for tick in range(3):
        state["tick"] = tick
        world.step(tick_time(tick))
        tippers.tick(tick_time(tick), world)
        state["first_tick"] = state["first_tick"] or len(tapped)
    sys.exit("the second tick made fewer than %d appends" % nth)


@pytest.mark.parametrize("nth", [1, 12, 25])
def test_a_death_mid_tick_loses_only_the_staged_frames(tmp_path, nth):
    from repro.storage import records
    from repro.storage.recovery import read_store

    directory = str(tmp_path / "store")
    out = str(tmp_path / "tapped.json")
    result = subprocess.run(
        [sys.executable, __file__, directory, str(nth), out],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=300,
    )
    assert result.returncode == DIED, result.stderr[-2000:]
    with open(out) as handle:
        report = json.load(handle)
    tapped = [(rt, bytes.fromhex(payload)) for rt, payload in report["tapped"]]
    staged = report["staged"]

    # What was committed is on disk; the frames staged since the last
    # commit and the record whose append the process died in are not.
    on_disk = [(rt, payload) for rt, _, payload in read_store(directory)]
    committed = len(on_disk)
    assert on_disk == tapped[:committed]
    assert committed >= report["first_tick"] > 0
    assert len(tapped) == committed + staged + 1
    assert (staged > 0) == (nth > 1)

    tippers, storage, _ = build(directory)
    recovery = tippers.recover(tick_time(1))
    assert recovery.frames_replayed == committed and not recovery.torn
    recovered = [records.encode_audit(record) for record in tippers.engine.audit]
    submitted = [payload for rt, payload in tapped if rt == records.AUDIT]
    assert recovered == submitted[: len(recovered)]
    assert submitted[len(recovered):] == [
        payload for rt, payload in tapped[committed:] if rt == records.AUDIT
    ]
    storage.close()


if __name__ == "__main__":
    child(sys.argv[1], int(sys.argv[2]), sys.argv[3])
