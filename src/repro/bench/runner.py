"""Run the bench suite and manage the ``BENCH_<n>.json`` trajectory.

The trajectory is a directory (normally the repo root) holding
``BENCH_0001.json``, ``BENCH_0002.json``, ...  ``record`` appends the
next record atomically (tmp file + ``os.replace``), ``latest_record``
finds the baseline ``compare`` gates against.  Only exact
``BENCH_<4 digits>.json`` names participate -- scratch outputs like
``BENCH_PR.json`` (the CI artifact) never become baselines.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Tuple

from repro.bench.schema import BENCH_SCHEMA_VERSION, BenchmarkEntry, BenchRecord, Timed
from repro.bench.workloads import REPEATS, WORKLOADS, resolve_scale, run_once
from repro.errors import BenchError

#: The trajectory filename shape; the 4-digit group is the record id.
RECORD_NAME_RE = re.compile(r"^BENCH_(\d{4})\.json$")


def peak_rss_kb() -> int:
    """The process's peak resident set size, in KiB (0 where unknown).

    ``ru_maxrss`` is KiB on Linux; on macOS it is bytes, normalized
    here so records stay comparable across dev machines.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        maxrss //= 1024
    return int(maxrss)


def run_suite(
    scale: str = "ci",
    label: str = "",
    record_id: int = 0,
    progress=None,
) -> BenchRecord:
    """Run every workload at ``scale`` and assemble a validated record.

    The suite runs ``REPEATS`` rounds, each of every workload once, so a
    workload's repeats are spread over the whole run instead of taken
    back to back, and their spread sees more of the machine's drift.
    ``progress`` (optional) is
    called with each workload's name before it runs, so the CLI can
    narrate long suites.
    """
    preset = resolve_scale(scale)
    samples: Dict[str, Dict[str, List[float]]] = {name: {} for name, _ in WORKLOADS}
    counted: Dict[str, Dict[str, float]] = {}
    for repeat in range(1, REPEATS + 1):
        for name, workload in WORKLOADS:
            if progress is not None:
                progress("%s (repeat %d/%d)" % (name, repeat, REPEATS))
            timed, counts = run_once(workload, preset)
            if counted.setdefault(name, counts) != counts:
                raise BenchError("%s counted differently on repeat %d" % (name, repeat))
            for metric, value in timed.items():
                samples[name].setdefault(metric, []).append(value)
    record = BenchRecord(
        version=BENCH_SCHEMA_VERSION,
        record_id=record_id,
        scale=preset.name,
        label=label,
        peak_rss_kb=peak_rss_kb(),
        benchmarks={
            name: BenchmarkEntry(
                name=name,
                timed={metric: Timed.of(values) for metric, values in timed.items()},
                counted=counted[name],
            )
            for name, timed in samples.items()
        },
    )
    record.validate()
    return record


# ----------------------------------------------------------------------
# Trajectory directory operations
# ----------------------------------------------------------------------
def record_path(directory: str, record_id: int) -> str:
    return os.path.join(directory, "BENCH_%04d.json" % record_id)


def list_records(directory: str) -> List[Tuple[int, str]]:
    """``(record_id, path)`` for every trajectory record, ascending."""
    try:
        names = os.listdir(directory)
    except OSError as error:
        raise BenchError("cannot list trajectory directory: %s" % error)
    found = []
    for name in names:
        match = RECORD_NAME_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


def latest_record(directory: str) -> Optional[BenchRecord]:
    """The highest-numbered committed record, loaded and validated."""
    records = list_records(directory)
    if not records:
        return None
    return load_record(records[-1][1])


def load_record(path: str) -> BenchRecord:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise BenchError("cannot read bench record: %s" % error)
    return BenchRecord.loads(text)


def write_record(record: BenchRecord, path: str) -> None:
    """Write ``record`` atomically (tmp file + ``os.replace``)."""
    payload = record.dumps()
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except OSError as error:
        raise BenchError("cannot write bench record %s: %s" % (path, error))


def append_record(record: BenchRecord, directory: str) -> Tuple[BenchRecord, str]:
    """Append ``record`` as the next numbered point on the trajectory.

    Returns the renumbered record and the path it was written to.
    """
    records = list_records(directory)
    next_id = records[-1][0] + 1 if records else 1
    numbered = BenchRecord(
        version=record.version,
        record_id=next_id,
        scale=record.scale,
        label=record.label,
        peak_rss_kb=record.peak_rss_kb,
        benchmarks=dict(record.benchmarks),
    )
    path = record_path(directory, next_id)
    write_record(numbered, path)
    return numbered, path
