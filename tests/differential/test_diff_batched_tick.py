"""Differential test of the batched capture tick against write-through.

``TIPPERS.tick`` runs its capture pass inside one
:meth:`~repro.storage.durable.StorageEngine.batch`: the tick's WAL
frames are staged and written by one commit.  The reference runs the
same pass through ``sensor_manager.tick`` with no batch, so every
append is written and flushed at once.  Checked here, on a small
seeded building whose WAL rotates inside a tick:

- after every completed tick of a 3-tick run, both leave byte-identical
  segment files;
- a ``torn_write`` or ``crash_mid_append`` at every WAL append of the
  second tick leaves byte-identical files, the same ``next_lsn`` and
  the same ``len(audit)`` in both.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import pytest

from repro.errors import SimulatedCrash
from repro.obs.metrics import MetricsRegistry
from repro.sensors.base import scoped_observation_ids
from repro.simulation.harness import build_compact_building
from repro.simulation.mobility import BuildingWorld
from repro.storage.durable import StorageEngine
from repro.storage.wal import list_segments

SEED = 5
POPULATION = 4
ROOMS_PER_FLOOR = 3
#: Small enough that the WAL rotates several times within one tick.
SEGMENT_BYTES = 2048
#: The tick whose appends crash; the first one is committed before it.
CRASH_TICK = 1


def files(directory: str) -> Dict[str, bytes]:
    """Segment file name -> its bytes."""
    contents = {}
    for path in list_segments(directory):
        with open(path, "rb") as handle:
            contents[os.path.basename(path)] = handle.read()
    return contents


class Building:
    """The compact building over its own storage directory."""

    def __init__(self, directory: str, batched: bool) -> None:
        self.directory = directory
        self.batched = batched
        metrics = MetricsRegistry()
        self.storage = StorageEngine(
            directory, segment_bytes=SEGMENT_BYTES, metrics=metrics
        )
        self.tippers, inhabitants = build_compact_building(
            "bt", "Batch Labs", POPULATION, SEED,
            rooms_per_floor=ROOMS_PER_FLOOR, metrics=metrics, storage=self.storage,
        )
        self.world = BuildingWorld(self.tippers.spatial, inhabitants, seed=SEED)

    def tick(self, tick: int) -> None:
        now = 43200.0 + 60.0 * tick
        self.world.step(now)
        if self.batched:
            self.tippers.tick(now, self.world)
            assert not self.storage.wal._staged  # a tick ends committed
        else:
            self.tippers.sensor_manager.tick(now, self.world)


def crash_at(nth: int, verdict: str, tick: list):
    """A WAL plane crashing the ``nth`` append of tick ``CRASH_TICK``."""
    seen = [0]

    def plane(operation: str, record_type: str) -> Optional[str]:
        if tick[0] != CRASH_TICK:
            return None
        seen[0] += 1
        return verdict if seen[0] == nth else None

    return plane


def run_to_crash(
    directory: str, batched: bool, nth: int, verdict: str
) -> Tuple[Dict[str, bytes], int, int]:
    """Tick until the planted crash; the files, ``next_lsn`` and audit size."""
    with scoped_observation_ids():
        building = Building(directory, batched)
        tick = [0]
        building.storage.install_fault_plane(crash_at(nth, verdict, tick))
        with pytest.raises(SimulatedCrash):
            for tick[0] in range(CRASH_TICK + 1):
                building.tick(tick[0])
        building.storage.close()
    return (
        files(directory),
        building.storage.wal.next_lsn,
        len(building.tippers.engine.audit),
    )


def appends_of_the_crash_tick(directory: str) -> int:
    with scoped_observation_ids():
        building = Building(directory, batched=True)
        for tick in range(CRASH_TICK):
            building.tick(tick)
        before = building.storage.wal.appends
        building.tick(CRASH_TICK)
        building.storage.close()
    return building.storage.wal.appends - before


def files_after_each_tick(directory: str, batched: bool, ticks: int) -> list:
    with scoped_observation_ids():
        building = Building(directory, batched)
        after = []
        for tick in range(ticks):
            building.tick(tick)
            after.append(files(directory))
        building.storage.close()
    assert building.storage.wal.segments_sealed > ticks
    return after


def test_every_completed_tick_leaves_the_write_through_files(tmp_path):
    assert files_after_each_tick(
        str(tmp_path / "batched"), True, 3
    ) == files_after_each_tick(str(tmp_path / "reference"), False, 3)


@pytest.mark.parametrize("verdict", ["torn_write", "crash_mid_append"])
def test_a_crash_at_every_append_of_a_tick_leaves_the_write_through_files(
    tmp_path, verdict
):
    appends = appends_of_the_crash_tick(str(tmp_path / "count"))
    assert appends > 20
    for nth in range(1, appends + 1):
        directory = tmp_path / verdict / str(nth)
        batched = run_to_crash(str(directory / "b"), True, nth, verdict)
        reference = run_to_crash(str(directory / "r"), False, nth, verdict)
        assert batched == reference, "crash at append %d of the tick" % nth
