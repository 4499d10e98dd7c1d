"""The scale benchmarks, written once.

Every SCALE benchmark has one body here.  The ``benchmarks/test_scale_*``
pytest suite (and the ABL-2/ABL-3 ablations) are thin wrappers: they
call the builders below, print their report rows and keep their shape
assertions.  The ``run_scale_*`` workloads drive the same builders
directly (no pytest) and export one ``BENCH_<n>.json`` entry each.

Every timed number is the median of ``REPEATS`` repeats, stored with
their interquartile range; each repeat's time is normalized to a
reference machine speed by a probe run between slices of the timed
loop (:func:`probed_s`).  Every counted number (rates, WAL bytes,
workload counts) is seeded: each repeat runs in a sealed world (fresh
metrics registry, observation ids from 1), so the counts of a repeat,
and of a run, do not depend on what ran before it.

The in-run equivalence checks live in the same bodies, so both paths
run them: the index decides like the linear scan, the compiled engine
decides like the interpreter, and its table counters account for every
decision.  A failed check raises :class:`~repro.errors.BenchError`.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.index import LinearRuleStore, PolicyIndex
from repro.errors import BenchError
from repro.iota.notifications import NotificationManager
from repro.iota.personas import PERSONAS, generate_decisions
from repro.iota.preference_model import DataPractice, PreferenceModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NullTracer
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.federate import run_federate_scenario
from repro.simulation.harness import ScenarioReport
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.longrun import run_week
from repro.simulation.mobility import BuildingWorld
from repro.simulation.overload import run_overload_scenario
from repro.simulation.rebalance import run_rebalance_scenario
from repro.sensors.base import scoped_observation_ids
from repro.spatial.model import SpaceType, build_simple_building
from repro.storage.durable import StorageEngine
from repro.tippers.bms import TIPPERS


@dataclass(frozen=True)
class ScalePreset:
    """Iteration counts for one suite scale (smoke < ci < full)."""

    name: str
    enforcement_users: int
    enforcement_requests: int
    linear_users: int
    linear_requests: int
    ingest_population: int
    ingest_ticks: int
    notification_repeats: int
    week_days: int
    week_population: int
    week_ticks_per_day: int
    overload_population: int
    overload_ticks: int
    federate_population: int
    federate_ticks: int
    rebalance_population: int
    rebalance_ticks: int


#: ``smoke`` keeps the unit-test suite fast, ``ci`` is what the bench
#: CI job records, ``full`` mirrors the pytest benchmark parameters.
SCALES: Dict[str, ScalePreset] = {
    preset.name: preset
    for preset in (
        ScalePreset(
            name="smoke",
            enforcement_users=50, enforcement_requests=400,
            linear_users=50, linear_requests=300,
            ingest_population=6, ingest_ticks=2,
            notification_repeats=3,
            week_days=1, week_population=6, week_ticks_per_day=4,
            overload_population=4, overload_ticks=6,
            federate_population=12, federate_ticks=16,
            rebalance_population=24, rebalance_ticks=12,
        ),
        ScalePreset(
            name="ci",
            enforcement_users=300, enforcement_requests=2000,
            linear_users=200, linear_requests=300,
            ingest_population=20, ingest_ticks=4,
            notification_repeats=20,
            week_days=2, week_population=10, week_ticks_per_day=8,
            overload_population=8, overload_ticks=12,
            federate_population=12, federate_ticks=16,
            rebalance_population=24, rebalance_ticks=12,
        ),
        ScalePreset(
            name="full",
            enforcement_users=1000, enforcement_requests=10000,
            linear_users=1000, linear_requests=300,
            ingest_population=40, ingest_ticks=12,
            notification_repeats=50,
            week_days=8, week_population=24, week_ticks_per_day=16,
            overload_population=12, overload_ticks=16,
            federate_population=16, federate_ticks=24,
            rebalance_population=32, rebalance_ticks=16,
        ),
    )
}


def resolve_scale(name: str) -> ScalePreset:
    preset = SCALES.get(name)
    if preset is None:
        raise BenchError(
            "unknown bench scale %r (choose from %s)"
            % (name, ", ".join(sorted(SCALES)))
        )
    return preset


# ----------------------------------------------------------------------
# Probe-normalized timing
# ----------------------------------------------------------------------
#: Every timed metric is the median of this many repeats, stored with
#: their interquartile range.
REPEATS = 5

#: A timed loop stops for a speed probe after this much op time.
SLICE_S = 0.02

#: How long one speed probe runs.
PROBE_S = 0.002

#: Probe units per second on the reference machine, as in ``perf/``.
REFERENCE_PROBE_RATE = 7500.0

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


def machine_speed() -> float:
    """The machine's speed now, as a share of the reference speed.

    The probe is a fixed piece of interpreter work that touches nothing
    of the program, run for ``PROBE_S``.  It is a copy of
    ``perf/run.py``'s ``machine_speed`` (the package cannot import
    ``perf/``).
    """
    clock = time.perf_counter
    gc.disable()  # the program's heap must not slow the probe
    try:
        units = 0
        start = clock()
        while True:
            _probe_unit()
            units += 1
            elapsed = clock() - start
            if elapsed >= PROBE_S:
                return units / elapsed / REFERENCE_PROBE_RATE
    finally:
        gc.enable()


def probed_s(ops: Iterable[Callable[[], Any]]) -> float:
    """Seconds ``ops`` take, run one after another, at the reference
    machine speed.

    A shared machine's speed drifts by tens of percent within seconds.
    The speed is probed before the first op and again after every
    ``SLICE_S`` of op time, and each slice's time is scaled by the mean
    speed of the two probes around it: a slower machine slows the slice
    and its probes alike, and cancels; a slower program does not.
    """
    clock = time.perf_counter
    total = pending = 0.0
    before = machine_speed()
    for op in ops:
        start = clock()
        op()
        pending += clock() - start
        if pending >= SLICE_S:
            after = machine_speed()
            total += pending * (before + after) / 2
            before, pending = after, 0.0
    if pending:
        total += pending * (before + machine_speed()) / 2
    return total


#: One repeat of a workload: its timed values and its counts.
Repeat = Tuple[Dict[str, float], Dict[str, float]]


def run_once(
    workload: Callable[[ScalePreset, MetricsRegistry], Repeat], scale: ScalePreset
) -> Repeat:
    """One repeat of ``workload`` in a sealed world: a collected heap, a
    fresh default registry, a null tracer, and observation ids counted
    from 1, so what it counts does not depend on what ran before it in
    the process."""
    gc.collect()
    registry = MetricsRegistry()
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(NullTracer())
    try:
        with scoped_observation_ids():
            return workload(scale, registry)
    finally:
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)


# ----------------------------------------------------------------------
# SCALE-1 (and ABL-2, ABL-3): enforcement decision latency
# ----------------------------------------------------------------------
#: The data categories generated preferences and requests draw from.
CATEGORIES = (
    DataCategory.LOCATION,
    DataCategory.PRESENCE,
    DataCategory.OCCUPANCY,
    DataCategory.ENERGY_USE,
    DataCategory.MEETING_DETAILS,
)


def build_engine(
    store_cls,
    users: int,
    engine_cls=EnforcementEngine,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[EnforcementEngine, int]:
    """An ``engine_cls`` over a fresh ``store_cls`` holding the three building
    policies and three generated sharing preferences per user, and its
    rule count.

    The rules are the same for every call: each preference is drawn from
    a seed-0 generator as (category, effect, granularity cap).
    """
    store = store_cls()
    store.add_policy(catalog.policy_2_emergency_location("b"))
    store.add_policy(catalog.policy_service_sharing("b"))
    store.add_policy(catalog.policy_1_comfort(["b-1001", "b-1002"]))
    rng = random.Random(0)
    for index in range(users):
        user_id = "user-%05d" % index
        for pref_no in range(3):
            category = rng.choice(CATEGORIES)
            store.add_preference(
                UserPreference(
                    preference_id="%s-p%d" % (user_id, pref_no),
                    user_id=user_id,
                    description="generated",
                    effect=rng.choice([Effect.ALLOW, Effect.DENY]),
                    categories=(category,),
                    phases=(DecisionPhase.SHARING,),
                    granularity_cap=rng.choice(list(GranularityLevel)),
                )
            )
    engine = engine_cls(
        store=store,
        context=EvaluationContext(spatial=build_simple_building("b", 2, 4)),
        metrics=metrics,
    )
    return engine, 3 + 3 * users


def make_requests(users: int, count: int, rng: random.Random) -> List[DataRequest]:
    """``count`` building-service sharing queries about random users."""
    return [
        DataRequest(
            requester_id="svc",
            requester_kind=RequesterKind.BUILDING_SERVICE,
            phase=DecisionPhase.SHARING,
            category=rng.choice(CATEGORIES),
            subject_id="user-%05d" % rng.randrange(users),
            space_id="b-1001",
            timestamp=float(rng.randrange(86400)),
            purpose=Purpose.PROVIDING_SERVICE,
        )
        for _ in range(count)
    ]


def mean_us(engine, requests: Sequence[DataRequest]) -> float:
    """Probe-normalized microseconds per decision over one pass of
    ``requests``, decided in batches of 25 by a C-driven loop."""
    drain: deque = deque(maxlen=0)
    decide = engine.decide
    seconds = probed_s(
        lambda chunk=requests[index : index + 25]: drain.extend(map(decide, chunk))
        for index in range(0, len(requests), 25)
    )
    return seconds / len(requests) * 1e6


#: The fewest timed passes :func:`batched_p50_us` makes.
PASSES = 5


def batched_p50_us(
    engine, requests: Sequence[DataRequest], min_s: float = 0.0
) -> Tuple[float, float]:
    """Per-decide p50 microseconds, timed in sequential batches of 25,
    and the seconds the passes took.

    Per-call ``perf_counter`` overhead is comparable to a compiled
    table hit, so single-call timing would flatter neither engine
    fairly; timing batches amortizes it.  At least ``PASSES`` passes
    run, back-to-back, and more until ``min_s`` has gone by --
    interleaving two engines (at any granularity) evicts the fast
    engine's warm cache lines and systematically under-reports it.
    Noise is additive, so the minimum of the per-pass medians is the
    best point estimate.
    """
    drain: deque = deque(maxlen=0)
    decide = engine.decide
    best = float("inf")
    passes = 0
    start = time.perf_counter()
    while passes < PASSES or time.perf_counter() - start < min_s:
        samples = []
        for index in range(0, len(requests), 25):
            chunk = requests[index : index + 25]
            begin = time.perf_counter()
            # C-driven loop: interpreter loop overhead would be a
            # measurable fraction of a compiled table hit.
            drain.extend(map(decide, chunk))
            samples.append((time.perf_counter() - begin) / len(chunk))
        best = min(best, statistics.median(samples))
        passes += 1
    return best * 1e6, time.perf_counter() - start


def compiled_speedup(reference, compiled, requests: Sequence[DataRequest]) -> float:
    """The compiled engine's warm speedup over ``reference``: one
    attempt at it.

    ``reference`` is timed and then ``compiled``, each with
    :func:`batched_p50_us`.  The compiled passes run for as long as the
    reference's did: a minimum drawn from a shorter window is less
    likely to catch the machine's quiet moments.  ``scale_enforcement``
    makes one attempt per repeat and the pytest SCALE-1b floor
    ``REPEATS`` attempts; both take the median of the attempts' ratios.
    """
    reference_us, reference_s = batched_p50_us(reference, requests)
    compiled_us, _ = batched_p50_us(compiled, requests, reference_s)
    return reference_us / compiled_us


def check_same_decisions(
    reference, candidates: Mapping[str, Any], requests: Sequence[DataRequest]
) -> None:
    """Every candidate engine must resolve ``requests`` exactly as
    ``reference`` does; timing a changed decision means nothing."""
    expected = [reference.decide(request).resolution for request in requests]
    for name, engine in candidates.items():
        for request, resolution in zip(requests, expected):
            if engine.decide(request).resolution != resolution:
                raise BenchError("%s changed a decision" % name)


def check_compiled(reference, compiled, requests: Sequence[DataRequest]) -> None:
    """Warm every row of ``compiled`` against ``reference`` and check
    its table counters account for each of those decisions."""
    check_same_decisions(reference, {"compiled engine": compiled}, requests)
    stats = compiled.stats
    counted = stats.hits + stats.misses + stats.uncacheable
    if counted != len(requests):
        raise BenchError(
            "compiled engine counted %d of %d decisions" % (counted, len(requests))
        )


def linear_vs_index(
    users: int, requests: Sequence[DataRequest]
) -> Tuple[float, float, int]:
    """Probe-normalized microseconds per decision of a linear rule scan
    and of the policy index over the same rules, and the rule count; the
    two must decide the first 50 requests alike.

    The engines take turns, 25 requests each, so both see the machine
    in the same state and their ratio holds however its speed drifts.
    """
    linear, rules = build_engine(LinearRuleStore, users)
    index, _ = build_engine(PolicyIndex, users)
    check_same_decisions(linear, {"index": index}, requests[:50])
    drain: deque = deque(maxlen=0)
    raw_s = {linear: 0.0, index: 0.0}

    def decide(engine, chunk) -> None:
        start = time.perf_counter()
        drain.extend(map(engine.decide, chunk))
        raw_s[engine] += time.perf_counter() - start

    seconds = probed_s(
        partial(decide, engine, requests[start : start + 25])
        for start in range(0, len(requests), 25)
        for engine in (linear, index)
    )
    linear_share = raw_s[linear] / (raw_s[linear] + raw_s[index])
    per_op_us = seconds / len(requests) * 1e6
    return per_op_us * linear_share, per_op_us * (1.0 - linear_share), rules


def run_scale_enforcement(scale: ScalePreset, registry: MetricsRegistry) -> Repeat:
    users = scale.enforcement_users
    requests = make_requests(users, scale.enforcement_requests, random.Random(2))
    engine, rules = build_engine(PolicyIndex, users)
    compiled_engine, _ = build_engine(PolicyIndex, users, CompiledEnforcementEngine)
    check_compiled(engine, compiled_engine, requests)
    linear_us, index_us, _ = linear_vs_index(
        scale.linear_users,
        make_requests(scale.linear_users, scale.linear_requests, random.Random(2)),
    )
    return {
        "us_per_op": mean_us(engine, requests),
        "linear_us_per_op": linear_us,
        "linear_speedup": linear_us / index_us,
        "compiled_speedup": compiled_speedup(engine, compiled_engine, requests),
    }, {"users": users, "rules": rules}


# ----------------------------------------------------------------------
# SCALE-2: full-inventory enforced ingest
# ----------------------------------------------------------------------
INGEST_NOON = 12 * 3600.0
INGEST_TICK_SPACING_S = 120.0


@dataclass(frozen=True)
class IngestRun:
    """What one timed run of capture sweeps sampled, stored and dropped."""

    elapsed_s: float
    sampled: int
    stored: int
    dropped: int

    @property
    def sampled_per_s(self) -> float:
        return self.sampled / self.elapsed_s


def build_ingest(
    population: int,
    enforce_capture: bool = True,
    storage: Optional[StorageEngine] = None,
) -> Tuple[TIPPERS, BuildingWorld]:
    """The full DBH inventory under the three catalog policies, with
    ``population`` seeded inhabitants moving in a world."""
    tippers = make_dbh_tippers(enforce_capture=enforce_capture, storage=storage)
    rooms = [s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)]
    tippers.define_policy(catalog.policy_1_comfort(rooms))
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))
    inhabitants = generate_inhabitants(tippers.spatial, population, seed=5)
    for person in inhabitants:
        tippers.add_user(person.profile)
    return tippers, BuildingWorld(tippers.spatial, inhabitants, seed=5)


def ingest_tick(tippers: TIPPERS, world: BuildingWorld, tick: int) -> None:
    """Move the world to sweep ``tick`` and run one capture sweep."""
    now = INGEST_NOON + tick * INGEST_TICK_SPACING_S
    world.step(now)
    tippers.tick(now, world)


def run_ingest(tippers: TIPPERS, world: BuildingWorld, ticks: int) -> IngestRun:
    start = time.perf_counter()
    for tick in range(ticks):
        ingest_tick(tippers, world, tick)
    elapsed = time.perf_counter() - start
    stats = tippers.sensor_manager.stats
    return IngestRun(
        elapsed_s=elapsed,
        sampled=stats.sampled,
        stored=stats.stored,
        dropped=stats.dropped_capture + stats.dropped_storage,
    )


def run_scale_ingest(scale: ScalePreset, registry: MetricsRegistry) -> Repeat:
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as tmpdir:
        engine = StorageEngine(tmpdir, metrics=registry)
        tippers, world = build_ingest(scale.ingest_population, storage=engine)
        seconds = probed_s(
            partial(ingest_tick, tippers, world, tick)
            for tick in range(scale.ingest_ticks)
        )
        wal_bytes = int(registry.total("storage_wal_bytes_total"))
        engine.close()
    stats = tippers.sensor_manager.stats
    return {"us_per_op": seconds / stats.sampled * 1e6}, {
        "sampled": stats.sampled,
        "stored": stats.stored,
        "dropped": stats.dropped_capture + stats.dropped_storage,
        "sensors": tippers.sensor_manager.count(),
        "wal_bytes": wal_bytes,
    }


# ----------------------------------------------------------------------
# SCALE-3: notification relevance sweep
# ----------------------------------------------------------------------
NOTIFICATION_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

#: The practice mix a real DBH deployment advertises: building
#: resources, first-party services, and a couple of third-party ones.
ADVERTISED = (
    DataPractice(DataCategory.LOCATION, Purpose.EMERGENCY_RESPONSE, retention_days=180),
    DataPractice(DataCategory.LOCATION, Purpose.PROVIDING_SERVICE),
    DataPractice(DataCategory.PRESENCE, Purpose.SECURITY, retention_days=30),
    DataPractice(DataCategory.PRESENCE, Purpose.PROVIDING_SERVICE, granularity=GranularityLevel.COARSE),
    DataPractice(DataCategory.OCCUPANCY, Purpose.COMFORT, retention_days=7),
    DataPractice(DataCategory.OCCUPANCY, Purpose.ENERGY_MANAGEMENT, granularity=GranularityLevel.AGGREGATE),
    DataPractice(DataCategory.ENERGY_USE, Purpose.ENERGY_MANAGEMENT, retention_days=365),
    DataPractice(DataCategory.TEMPERATURE, Purpose.COMFORT, granularity=GranularityLevel.AGGREGATE),
    DataPractice(DataCategory.IDENTITY, Purpose.ACCESS_CONTROL, retention_days=365),
    DataPractice(DataCategory.MEETING_DETAILS, Purpose.PROVIDING_SERVICE),
    DataPractice(DataCategory.LOCATION, Purpose.RESEARCH, retention_days=365),
    DataPractice(DataCategory.LOCATION, Purpose.PROVIDING_SERVICE, third_party=True),
    DataPractice(DataCategory.IDENTITY, Purpose.MARKETING, third_party=True),
    DataPractice(DataCategory.ACTIVITY, Purpose.SECURITY),
)


@lru_cache(maxsize=None)
def persona_models() -> Dict[str, PreferenceModel]:
    """One preference model per Westin persona, fit on noiseless decisions
    (once per process; the sweep only reads them)."""
    return {
        name: PreferenceModel().fit(generate_decisions(persona, 200, seed=1, noise=0.0))
        for name, persona in PERSONAS.items()
    }


def notification_sweep(models: Mapping[str, PreferenceModel]) -> Dict[str, List[int]]:
    """How many of :data:`ADVERTISED` each persona's assistant shows at
    each of :data:`NOTIFICATION_THRESHOLDS`."""
    series = {}
    for name, model in sorted(models.items()):
        counts = []
        for threshold in NOTIFICATION_THRESHOLDS:
            manager = NotificationManager(
                model, relevance_threshold=threshold, daily_budget=100
            )
            counts.append(sum(
                1
                for index, practice in enumerate(ADVERTISED)
                if manager.offer(float(index), practice, "practice-%d" % index)
            ))
        series[name] = counts
    return series


def run_scale_notifications(scale: ScalePreset, registry: MetricsRegistry) -> Repeat:
    models = persona_models()
    sweeps: List[Dict[str, List[int]]] = []
    seconds = probed_s(
        lambda: sweeps.append(notification_sweep(models))
        for _ in range(scale.notification_repeats)
    )
    if any(sweep != sweeps[0] for sweep in sweeps):
        raise BenchError("a notification sweep changed between sweeps")
    offers = len(sweeps) * len(models) * len(NOTIFICATION_THRESHOLDS) * len(ADVERTISED)
    mid = NOTIFICATION_THRESHOLDS.index(0.4)
    counted = {"advertised_practices": len(ADVERTISED), "offers": offers}
    for name in sorted(models):
        counted["shown_at_0.4_%s" % name] = sweeps[0][name][mid]
    return {"us_per_op": seconds / offers * 1e6}, counted


# ----------------------------------------------------------------------
# SCALE-4: week-in-the-life soak
# ----------------------------------------------------------------------
def _one_run(run: Callable[[], Any]) -> Tuple[float, Any]:
    """``run()``'s probe-normalized seconds and its result."""
    results: List[Any] = []
    seconds = probed_s([lambda: results.append(run())])
    return seconds, results[0]


def run_scale_week(scale: ScalePreset, registry: MetricsRegistry) -> Repeat:
    seconds, result = _one_run(lambda: run_week(
        days=scale.week_days,
        population=scale.week_population,
        ticks_per_day=scale.week_ticks_per_day,
        seed=9,
    ))
    return {"us_per_op": seconds / result.observations_sampled * 1e6}, {
        "days": scale.week_days,
        "population": scale.week_population,
        "sampled": result.observations_sampled,
        "stored": result.observations_stored,
        "purged": result.observations_purged,
        "queries_total": result.queries_total,
        "denial_rate": round(result.denial_rate, 6),
    }


# ----------------------------------------------------------------------
# SCALE-5..7: the fault scenarios, run and exported
# ----------------------------------------------------------------------
def _scenario_repeat(
    name: str,
    registry: MetricsRegistry,
    run: Callable[[MetricsRegistry], ScenarioReport],
    extra: Callable[[Any], Dict[str, float]],
) -> Repeat:
    """Run one scenario and export it: time per admission check, the
    ledger's shed and brownout rates, WAL bytes, and the scenario's own
    ``extra`` counts.  A run that violates its invariants is an error,
    not a data point."""
    seconds, report = _one_run(lambda: run(registry))
    if not report.ok:
        raise BenchError(
            "%s workload violated its invariants: %s"
            % (name, "; ".join(report.violations))
        )
    counted = {
        "shed_rate": round(report.ledger_shed / max(report.ledger_checked, 1), 6),
        "brownout_rate": round(
            report.ledger_brownouts / max(report.ledger_admitted, 1), 6
        ),
        "wal_bytes": int(registry.total("storage_wal_bytes_total")),
    }
    counted.update(extra(report))
    return {"us_per_op": seconds / report.ledger_checked * 1e6}, counted


def run_scale_overload(scale: ScalePreset, registry: MetricsRegistry) -> Repeat:
    """SCALE-5: rush-hour overload, admission on."""
    return _scenario_repeat(
        "scale_overload",
        registry,
        lambda metrics: run_overload_scenario(
            plan_name="rush-hour",
            seed=11,
            population=scale.overload_population,
            ticks=scale.overload_ticks,
            admission=True,
            metrics=metrics,
        ),
        lambda report: {
            "critical_shed": float(report.critical.shed),
            "deferrable_shed_rate": round(report.deferrable.shed_rate, 6),
            "injected_arrivals": float(report.injected_arrivals),
            "stored": float(report.stored),
        },
    )


def run_scale_federate(scale: ScalePreset, registry: MetricsRegistry) -> Repeat:
    """SCALE-6: sharded campus federation (roaming, crash, DSAR fan-out)."""
    return _scenario_repeat(
        "scale_federate",
        registry,
        lambda metrics: run_federate_scenario(
            plan_name="campus-storm",
            seed=17,
            population=scale.federate_population,
            ticks=scale.federate_ticks,
            metrics=metrics,
        ),
        lambda report: {
            "buildings": float(len(report.buildings)),
            "population": float(report.population),
            "handoffs": float(report.handoffs),
            "reentries": float(report.reentries),
            "preferences_repushed": float(report.preferences_repushed),
            "roaming_marked_responses": float(report.roaming_marked_responses),
            "dsar_erased": float(report.dsar_erased),
            "recovered": 1.0 if report.recovered else 0.0,
        },
    )


def run_scale_rebalance(scale: ScalePreset, registry: MetricsRegistry) -> Repeat:
    """SCALE-7: elastic membership (ring change, crash-tolerant rebalance)."""

    def extra(report) -> Dict[str, float]:
        stats = report.migration_stats
        return {
            "population": float(report.population),
            "migrations_planned": float(stats.get("planned", 0)),
            "migrations_completed": float(stats.get("completed", 0)),
            "resumed_committed": float(stats.get("resumed_committed", 0)),
            "observations_moved": float(report.observations_moved),
            "preferences_moved": float(report.preferences_moved),
            "forwarded_marked": float(report.marked_responses),
            "dsar_erased": float(report.dsar_erased),
            "recovered": 1.0 if report.recovered else 0.0,
        }

    return _scenario_repeat(
        "scale_rebalance",
        registry,
        lambda metrics: run_rebalance_scenario(
            plan_name="ring-change",
            seed=23,
            population=scale.rebalance_population,
            ticks=scale.rebalance_ticks,
            metrics=metrics,
        ),
        extra,
    )


#: Workload registry, in SCALE order; ``runner.run_suite`` walks this.
WORKLOADS: Tuple[Tuple[str, Callable[[ScalePreset, MetricsRegistry], Repeat]], ...] = (
    ("scale_enforcement", run_scale_enforcement),
    ("scale_ingest", run_scale_ingest),
    ("scale_notifications", run_scale_notifications),
    ("scale_week", run_scale_week),
    ("scale_overload", run_scale_overload),
    ("scale_federate", run_scale_federate),
    ("scale_rebalance", run_scale_rebalance),
)
