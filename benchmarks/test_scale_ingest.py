"""SCALE-2: sustained observation ingest of the full DBH inventory.

Runs the complete Section-II sensor fleet (40 cameras, 60 APs, 200
beacons, 100 power meters, plus the per-room comfort loop) against a
populated building, with capture-phase enforcement on and off, and
reports the throughput and the overhead of privacy compliance.

Expected shape: enforcement adds a bounded constant-factor overhead
relative to a do-nothing ingest (the raw baseline stores blindly and
pays for nothing else), while dropping the unauthorized streams -- the
cost Section V-C says must be "minimized", not zero.  The absolute
number is the practical bound: enforced ingest must stay far above the
observation rate a real building of this size produces (hundreds of
observations per second).
"""

from benchmarks.conftest import report
from repro.bench.workloads import SCALES, build_ingest, ingest_tick, run_ingest
from repro.storage.durable import StorageEngine

FULL = SCALES["full"]


def _run(enforce_capture: bool, storage=None):
    tippers, world = build_ingest(FULL.ingest_population, enforce_capture, storage)
    return run_ingest(tippers, world, FULL.ingest_ticks)


def test_scale_ingest_overhead(benchmark):
    results = benchmark.pedantic(_run_both, iterations=1, rounds=1)
    enforced, raw = results

    overhead = (
        (raw.sampled_per_s / enforced.sampled_per_s)
        if enforced.sampled_per_s
        else float("inf")
    )
    rows = [
        "%-24s %12s %12s" % ("", "enforced", "raw"),
        "%-24s %12d %12d" % ("observations sampled", enforced.sampled, raw.sampled),
        "%-24s %12d %12d" % ("observations stored", enforced.stored, raw.stored),
        "%-24s %12d %12d" % ("observations dropped", enforced.dropped, raw.dropped),
        "%-24s %10.0f/s %10.0f/s" % ("ingest throughput", enforced.sampled_per_s, raw.sampled_per_s),
        "privacy-compliance overhead: %.2fx" % overhead,
    ]
    report("SCALE-2: full-inventory ingest, enforcement on vs off", rows)

    # Shape assertions.
    assert enforced.sampled == raw.sampled, "same physical world"
    assert enforced.stored < raw.stored, "unauthorized streams dropped"
    assert enforced.dropped > 0
    assert raw.dropped == 0
    assert overhead < 30.0, "compliance overhead must stay a bounded constant"
    assert enforced.sampled_per_s > 2000, (
        "enforced ingest must comfortably exceed a real building's "
        "observation rate"
    )

    benchmark.extra_info["overhead_factor"] = round(overhead, 3)
    benchmark.extra_info["stored_enforced"] = enforced.stored
    benchmark.extra_info["stored_raw"] = raw.stored


def _run_both():
    return _run(enforce_capture=True), _run(enforce_capture=False)


def test_scale_ingest_wal_overhead(benchmark, tmp_path):
    """SCALE-2b: the price of durability -- WAL-on vs WAL-off ingest.

    Both runs enforce capture; the only difference is whether every
    stored observation is write-ahead-logged first.  The ``storage_*``
    counters land in the session metric baseline, so with
    ``REPRO_METRICS_OUT`` set the WAL append/byte counts are exported
    alongside the throughput numbers for before/after diffing.
    """
    engine = StorageEngine(str(tmp_path), segment_bytes=4 * 1024 * 1024)

    def _run_wal_pair():
        return _run(enforce_capture=True, storage=engine), _run(enforce_capture=True)

    durable, plain = benchmark.pedantic(_run_wal_pair, iterations=1, rounds=1)
    engine.close()

    overhead = (
        (plain.sampled_per_s / durable.sampled_per_s)
        if durable.sampled_per_s
        else float("inf")
    )
    rows = [
        "%-24s %12s %12s" % ("", "wal on", "wal off"),
        "%-24s %12d %12d" % ("observations stored", durable.stored, plain.stored),
        "%-24s %10.0f/s %10.0f/s"
        % ("ingest throughput", durable.sampled_per_s, plain.sampled_per_s),
        "wal frames appended: %d in %d segment(s)"
        % (engine.wal.appends, len(engine.wal.segment_paths())),
        "durability overhead: %.2fx" % overhead,
    ]
    report("SCALE-2b: enforced ingest, WAL on vs off", rows)

    # Shape assertions.
    assert durable.stored == plain.stored, "durability must not change policy"
    assert engine.wal.appends >= durable.stored, "every store was logged first"
    assert overhead < 20.0, "the WAL must stay a bounded constant factor"

    benchmark.extra_info["wal_overhead_factor"] = round(overhead, 3)
    benchmark.extra_info["wal_appends"] = engine.wal.appends


def test_scale_ingest_enforced_tick_benchmark(benchmark):
    """pytest-benchmark datapoint: one enforced capture sweep."""
    tippers, world = build_ingest(FULL.ingest_population)
    state = {"tick": 0}

    def one_tick():
        ingest_tick(tippers, world, state["tick"])
        state["tick"] += 1

    benchmark(one_tick)
    benchmark.extra_info["sensors"] = tippers.sensor_manager.count()
