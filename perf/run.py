#!/usr/bin/env python3
"""Run the benchmark.

    python3 perf/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace [0|1]] [--out DIR]

Each named workload (default: all four) runs in its own fresh
subprocess: five timed set-ups, a warm-up of a fifth of ``--seconds``,
then the timed window, driven by one closed-loop client with no think
time.  Every metric is printed by name with its unit and the run's
outputs are checked.  With ``--out DIR`` one JSON file per run is
written there; without it the run leaves no file behind.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace``.  A
traced run measures the first half of its window untraced and the
second half traced, so the two give the tracing overhead.

Times (and so throughput) are reported at a reference machine speed:
every quarter second of timed ops is followed by a short fixed probe,
and each op's time is scaled by how fast the probe ran next to it.
The raw figures are kept in the run file.

Exit status: 0 when every check passed, 1 when a check failed, 2 on bad
usage or when the program under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("query", "capture", "onboard", "campus_rush")
SETUP_BUILDS = 5
WARMUP_SHARE = 0.2
#: After every ``PROBE_EVERY_S`` of timed ops the load loop runs the
#: speed probe for ``PROBE_S``; the ops before it are timed at that speed.
PROBE_EVERY_S = 0.25
PROBE_S = 0.025
#: Probe units per second of an undisturbed 2-vCPU Intel Xeon VM on
#: Python 3.11; times are reported as if the machine ran at this speed.
REFERENCE_PROBE_RATE = 7500.0
#: ``peak_rss_mb`` is read once a run has sent this share of the ops
#: a reference-speed machine sends in its warm-up and timed window.
MEMORY_SHARE = 0.8
#: Last-third vs first-third throughput beyond this flags a run.
STATIONARY_TOLERANCE = 0.10


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The machine-speed probe
# ----------------------------------------------------------------------
# A shared machine's speed drifts by tens of percent within seconds and
# between runs, far more than the bounds the benchmark gates on.  The probe is a fixed piece of interpreter work
# that touches nothing of the program; it runs between slices of timed
# ops, and each op's time is scaled by the probe's speed at that moment.
# A change to the program moves the op times and not the probe, so it
# shows in full; a slower machine moves both, and cancels.
_PROBE_DOCUMENT = {"a": [1, 2, 3, {"b": "text" * 5}], "c": 1.5, "d": {"e": None, "f": True}}


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _probe_unit() -> None:
    table = {}
    for index in range(300):
        item = _ProbeItem(str(index), index)
        table[item.key] = item.value
    json.loads(json.dumps(_PROBE_DOCUMENT))
    sorted(table.items())


def machine_speed(seconds: float = PROBE_S) -> float:
    """The machine's speed now, as a share of the reference speed."""
    clock = time.perf_counter
    gc.disable()  # the program's heap must not slow the probe
    try:
        units = 0
        start = clock()
        while True:
            _probe_unit()
            units += 1
            elapsed = clock() - start
            if elapsed >= seconds:
                return units / elapsed / REFERENCE_PROBE_RATE
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# The closed load loop and its statistics
# ----------------------------------------------------------------------
class Window:
    """Per-op records of one measured window, in the order sent."""

    def __init__(self) -> None:
        self.durations: List[float] = []  # seconds inside the entry call
        self.weights: List[int] = []  # throughput units; 0 when refused
        self.speeds: List[float] = []  # machine speed around each op
        self.wall_s = 0.0
        self.probe_s = 0.0
        self.peak_rss_mb: Optional[float] = None

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def probe(self) -> None:
        """Probe the machine; the ops since the last probe ran at its speed."""
        began = time.perf_counter()
        speed = machine_speed()
        self.speeds.extend([speed] * (len(self.durations) - len(self.speeds)))
        self.probe_s += time.perf_counter() - began

    def normalized(self) -> List[float]:
        """Op times at the reference machine speed."""
        return [d * s for d, s in zip(self.durations, self.speeds)]

    def served_latencies(self) -> List[float]:
        return sorted(d for d, w in zip(self.normalized(), self.weights) if w)

    def throughput(self, lo: int = 0, hi: Optional[int] = None) -> float:
        busy = sum(self.normalized()[lo:hi])
        return sum(self.weights[lo:hi]) / busy if busy else 0.0

    def raw_throughput(self) -> float:
        busy = sum(self.durations)
        return sum(self.weights) / busy if busy else 0.0


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive(
    bench: Any, entry: Callable[[Any], Any], seconds: float, probe: bool = True,
    memory_at: int = 0,
) -> Window:
    """Send ops back to back for ``seconds``; time each.

    The peak RSS is read right after op number ``memory_at``, if the
    window reaches it.
    """
    window = Window()
    durations, weights = window.durations, window.weights
    next_op, observe, weight = bench.next_op, bench.observe, bench.weight
    refusals = bench.refusals
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    next_probe = start + PROBE_EVERY_S if probe else float("inf")
    while clock() < deadline:
        op = next_op()
        began = clock()
        try:
            result = entry(op)
        except refusals:
            durations.append(clock() - began)
            weights.append(0)
            observe(op, None)
        else:
            durations.append(clock() - began)
            weights.append(weight(result))
            observe(op, result)
        if len(durations) == memory_at:
            window.peak_rss_mb = peak_rss_mb()
        if clock() >= next_probe:
            window.probe()
            next_probe = clock() + PROBE_EVERY_S
    if probe and len(window.speeds) < window.attempted:
        window.probe()
    window.wall_s = clock() - start
    return window


def top_up(bench: Any, ops: int) -> None:
    """Send ``ops`` more ops untimed, observing every answer."""
    for _ in range(ops):
        op = bench.next_op()
        try:
            result = bench.call(op)
        except bench.refusals:
            result = None
        bench.observe(op, result)


def percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of sorted ``ordered``."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def import_program() -> Optional[str]:
    """Put ``src/`` first on the path; an error message if unusable."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        return "cannot import the program from %s: %s" % (SRC, exc)
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        return "imported repro from %s, not from %s" % (where, SRC)
    return None


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Set up, warm up, measure and check one workload; the run record."""
    from perf.trace import Tracer
    from perf.workloads import WORKLOADS, Check

    # Every build write-ahead-logs under one temporary directory in the
    # checkout, which the run deletes however it ends.
    work = tempfile.mkdtemp(prefix=".perf-", dir=ROOT)
    bench = None
    try:
        setup_s = []
        for _ in range(SETUP_BUILDS):
            if bench is not None:
                bench.close()
                bench = None
                gc.collect()
            directory = tempfile.mkdtemp(dir=work)
            # A build is timed at the mean of the machine's speed just
            # before and just after it; one side alone let a burst of
            # load on the other throw the time off.
            speed = machine_speed()
            began = time.perf_counter()
            bench = WORKLOADS[name](seed, directory)
            elapsed = time.perf_counter() - began
            setup_s.append(elapsed * (speed + machine_speed()) / 2)
        warmup = drive(bench, bench.call, seconds * WARMUP_SHARE, probe=False)
        tracer = None
        if traced:
            window = drive(bench, bench.call, seconds / 2)
            tracer = Tracer()
            tracer.install_layers()
            try:
                traced_window = drive(bench, tracer.op(bench.call), seconds / 2)
            finally:
                tracer.unwrap_all()
        else:
            # The program's memory grows with the ops it has served (its
            # audit logs fill up), so the peak RSS is read at a fixed op
            # count: inside the window on a machine at MEMORY_SHARE of
            # the reference speed or faster, after untimed extra ops on
            # a slower one.  Either way it is read before the checks,
            # which build a second instance.
            memory_ops = round(
                bench.reference_rate * seconds * (1 + WARMUP_SHARE) * MEMORY_SHARE)
            remaining = memory_ops - warmup.attempted
            wal_before = bench.wal_bytes()
            window = drive(bench, bench.call, seconds, memory_at=remaining)
            wal_bytes = bench.wal_bytes() - wal_before
            top_up(bench, remaining - window.attempted)
            if window.peak_rss_mb is None:
                window.peak_rss_mb = peak_rss_mb()
        checks = bench.checks(tempfile.mkdtemp(dir=work))
        record = summarize(name, seed, seconds, bench, window, setup_s, checks)
        record["detail"]["warmup_ops"] = warmup.attempted
        if tracer is not None:
            record["metrics"] = trace_metrics(tracer, window, traced_window, record)
        else:
            record["metrics"]["peak_rss_mb"] = (window.peak_rss_mb, "MiB")
            record["metrics"]["wal_bytes_per_op"] = (
                wal_bytes / max(window.attempted, 1), "B/op")
            record["detail"]["memory_ops"] = memory_ops
        return record
    except Exception:
        traceback.print_exc()
        check = Check("run completed", False, traceback.format_exc(limit=1).strip())
        return {"workload": name, "seed": seed, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "checks": [vars(check)]}
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)


def summarize(
    name: str, seed: int, seconds: float, bench: Any, window: Window,
    setup_s: List[float], checks: List[Any],
) -> Dict[str, Any]:
    latencies = window.served_latencies()
    served = len(latencies)
    attempted = max(window.attempted, 1)
    thirds = window.attempted // 3
    first = window.throughput(0, thirds)
    last = window.throughput(window.attempted - thirds)
    drift = last / first - 1.0 if first else 0.0
    busy = sum(window.durations)
    metrics = {
        "throughput_ops_s": (window.throughput(), "ops/s"),
        "latency_p50_us": (percentile(latencies, 50.0) * 1e6, "us"),
        "served_share": (served / attempted, "fraction"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    failed = bench.failed
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "correct": all(check.ok for check in checks) and failed == 0,
        "attempted": window.attempted,
        "failed": failed,
        "metrics": metrics,
        "checks": [vars(check) for check in checks],
        "detail": {
            "served": served,
            "refused": window.attempted - served,
            # The tail is reported, not gated: no percentile above the
            # median repeats within 10% across runs on a shared machine.
            "latency_p90_us": percentile(latencies, 90.0) * 1e6,
            "latency_p99_us": percentile(latencies, 99.0) * 1e6,
            "latency_mean_us": sum(latencies) / served * 1e6 if served else 0.0,
            "raw_throughput_ops_s": window.raw_throughput(),
            "machine_speed": sum(window.normalized()) / busy if busy else 0.0,
            "wall_s": window.wall_s,
            "probe_share": window.probe_s / window.wall_s,
            "generator_share": 1.0 - (busy + window.probe_s) / window.wall_s,
            "setup_runs_s": setup_s,
            "last_vs_first_third": drift,
            "stationary": abs(drift) <= STATIONARY_TOLERANCE,
            "workload": bench.describe(),
        },
    }


def trace_metrics(
    tracer: Any, untraced: Window, traced: Window, record: Dict[str, Any]
) -> Dict[str, Tuple[float, str]]:
    traced_busy = sum(traced.normalized())
    metrics = tracer.layer_metrics(traced_busy / sum(traced.durations))
    plain_s = sum(untraced.normalized()) / max(untraced.attempted, 1)
    traced_s = traced_busy / max(traced.attempted, 1)
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0 if plain_s else 0.0, "fraction")
    record["detail"]["trace_missing"] = list(tracer.missing)
    record["spans"] = tracer.spans
    return metrics


def child(args: argparse.Namespace) -> int:
    problem = import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = run_workload(args.workload[0], args.seed, args.seconds, bool(args.trace))
    record["trace"] = bool(args.trace)
    for check in record["checks"]:
        print("%s check %s: %s %s" % (
            record["workload"], "ok  " if check["ok"] else "FAIL",
            check["name"], check["detail"]))
    for missing in record.get("detail", {}).get("trace_missing", []):
        print("%s trace: callable not found: %s" % (record["workload"], missing))
    for key, value in sorted(record.get("detail", {}).items()):
        if isinstance(value, (int, float)):
            print("%s detail %s %.6g" % (record["workload"], key, value))
    for metric, (value, unit) in sorted(record["metrics"].items()):
        print("%s %s %.6g %s" % (record["workload"], metric, value, unit))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "%s-seed%d-%s-%d.json" % (
            record["workload"], args.seed, "trace" if args.trace else "e2e",
            int(time.time() * 1000)))
        with open(path, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    measured = record["metrics"]
    result = {
        "correct": record["correct"] and all(m["name"] in measured for m in wanted),
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
            for m in wanted if m["name"] in measured
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--duration", dest="seconds", type=float,
                        default=15.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="measure per-layer metrics instead")
    parser.add_argument("--out", help="directory for the per-run JSON files")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = args.workload or list(WORKLOAD_NAMES)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.child:
        return child(args)
    status = 0
    results = []
    for name in args.workload:
        command = [
            sys.executable, os.path.abspath(__file__), "--child",
            "--workload", name, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
        ]
        if args.out is not None:
            command += ["--out", args.out]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        try:
            results.append((name, json.loads(lines[-1])))
        except (IndexError, ValueError):
            status = max(status, 1)
    if status == 2:
        return status
    if len(args.workload) > 1:
        print(json.dumps({
            "correct": status == 0,
            "attempted": max(sum(r["attempted"] for _, r in results), 1),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                "%s.%s" % (name, metric): value
                for name, result in results
                for metric, value in result["metrics"].items()
            },
        }, sort_keys=True))
    return status


if __name__ == "__main__":
    # The script's own directory comes first on the path, where
    # perf/trace.py would shadow the standard library's ``trace``.
    sys.path[0] = ROOT
    sys.exit(main())
