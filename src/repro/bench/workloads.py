"""The scale benchmarks, written once.

Every SCALE benchmark has one body here.  The ``benchmarks/test_scale_*``
pytest suite (and the ABL-2/ABL-3 ablations) are thin wrappers: they
call the builders below, print their report rows and keep their shape
assertions.  The ``run_scale_*`` workloads drive the same builders
directly (no pytest) under a fresh :class:`~repro.obs.MetricsRegistry`,
so their latency histograms can be exported per benchmark into the
``BENCH_<n>.json`` trajectory instead of smeared into one session-wide
``REPRO_METRICS_OUT`` snapshot.  Decision latency comes from the obs
layer's ``enforcement_decide_seconds`` histogram wherever the workload
drives the enforcement engine; the notification sweep times its
accept/ignore decision directly (it is the decision on that path).

The in-run equivalence checks live in the same bodies, so both paths
run them: the index decides like the linear scan, the compiled engine
decides like the interpreter, and its table counters account for every
decision.  A failed check raises :class:`~repro.errors.BenchError`.

Wall-clock numbers here are intentionally *not* deterministic -- that
is what the per-metric tolerances in :mod:`repro.bench.compare` are
for.  The deterministic counterpart is the capacity soak harness in
:mod:`repro.simulation.longrun`.
"""

from __future__ import annotations

import random
import statistics
import tempfile
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.bench.schema import BenchmarkEntry, LatencySummary
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
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import NullTracer
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.federate import run_federate_scenario
from repro.simulation.harness import ScenarioReport
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.longrun import run_week
from repro.simulation.mobility import BuildingWorld
from repro.simulation.overload import run_overload_scenario
from repro.simulation.rebalance import run_rebalance_scenario
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
            linear_users=50, linear_requests=100,
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


@contextmanager
def _scoped_registry() -> Iterator[MetricsRegistry]:
    """A fresh default registry (and a null tracer) for one workload."""
    registry = MetricsRegistry()
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(NullTracer())
    try:
        yield registry
    finally:
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)


def _latency_summary(histogram: Optional[Histogram], context: str) -> LatencySummary:
    """``histogram`` (seconds) exported as a microsecond summary."""
    if histogram is None or histogram.count == 0:
        raise BenchError("workload %s produced no latency samples" % context)
    summary = histogram.summary(percentiles=(50.0, 99.0))
    return LatencySummary(
        p50_us=float(summary["p50"]) * 1e6,  # type: ignore[arg-type]
        p99_us=float(summary["p99"]) * 1e6,  # type: ignore[arg-type]
        mean_us=float(summary["mean"]) * 1e6,  # type: ignore[arg-type]
        max_us=float(summary["max"]) * 1e6,  # type: ignore[arg-type]
        count=histogram.count,
    )


def _throughput(operations: int, elapsed_s: float) -> float:
    return operations / max(elapsed_s, 1e-9)


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
    compiled: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[EnforcementEngine, int]:
    """An engine over a fresh ``store_cls`` holding the three building
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
    engine = EnforcementEngine(
        store=store,
        context=EvaluationContext(spatial=build_simple_building("b", 2, 4)),
        metrics=metrics,
        compiled=compiled,
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
    """Mean microseconds per decision over one pass of ``requests``."""
    start = time.perf_counter()
    for request in requests:
        engine.decide(request)
    return (time.perf_counter() - start) / len(requests) * 1e6


def batched_p50_us(engine, requests: Sequence[DataRequest], passes: int) -> float:
    """Per-decide p50 microseconds, timed in sequential batches of 25.

    Per-call ``perf_counter`` overhead is comparable to a compiled
    table hit, so single-call timing would flatter neither engine
    fairly; timing batches amortizes it.  All of one engine's passes
    run back-to-back -- interleaving two engines (at any granularity)
    evicts the fast engine's warm cache lines and systematically
    under-reports it.  Noise is additive, so the minimum of the
    per-pass medians is the best point estimate.
    """
    drain: deque = deque(maxlen=0)
    decide = engine.decide
    best = float("inf")
    for _ in range(passes):
        samples = []
        for index in range(0, len(requests), 25):
            chunk = requests[index : index + 25]
            begin = time.perf_counter()
            # C-driven loop: interpreter loop overhead would be a
            # measurable fraction of a compiled table hit.
            drain.extend(map(decide, chunk))
            samples.append((time.perf_counter() - begin) / len(chunk))
        best = min(best, statistics.median(samples))
    return best * 1e6


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
    """Mean microseconds per decision of a linear rule scan and of the
    policy index over the same rules, and the rule count; the two must
    decide the first 50 requests alike."""
    linear, rules = build_engine(LinearRuleStore, users)
    index, _ = build_engine(PolicyIndex, users)
    check_same_decisions(linear, {"index": index}, requests[:50])
    return mean_us(linear, requests), mean_us(index, requests), rules


def run_scale_enforcement(scale: ScalePreset) -> BenchmarkEntry:
    users = scale.enforcement_users
    requests = make_requests(users, scale.enforcement_requests, random.Random(2))
    indexed_registry = MetricsRegistry()
    with _scoped_registry():
        engine, rules = build_engine(PolicyIndex, users, metrics=indexed_registry)
        start = time.perf_counter()
        for request in requests:
            engine.decide(request)
        elapsed = time.perf_counter() - start

        compiled_engine, _ = build_engine(PolicyIndex, users, compiled=True)
        check_compiled(engine, compiled_engine, requests)
        # Whole-pair attempts ride out multi-second scheduling-noise
        # windows; per-engine minimum across attempts, like the per-pass
        # minimum, is the additive-noise point estimate.
        indexed_p50_us = compiled_p50_us = float("inf")
        for _ in range(3):
            indexed_p50_us = min(
                indexed_p50_us, batched_p50_us(engine, requests, passes=5)
            )
            compiled_p50_us = min(
                compiled_p50_us, batched_p50_us(compiled_engine, requests, passes=5)
            )

        linear_requests = make_requests(
            scale.linear_users, scale.linear_requests, random.Random(2)
        )
        # The speedup is taken against the indexed run timed above.
        linear_us = linear_vs_index(scale.linear_users, linear_requests)[0]

    indexed_us = elapsed / len(requests) * 1e6
    return BenchmarkEntry(
        name="scale_enforcement",
        decision_latency=_latency_summary(
            indexed_registry.merged_histogram("enforcement_decide_seconds"),
            "scale_enforcement",
        ),
        ingest_throughput_per_s=_throughput(len(requests), elapsed),
        extra={
            "users": float(users),
            "rules": float(rules),
            "indexed_us_per_op": indexed_us,
            "linear_us_per_op": linear_us,
            "linear_speedup": linear_us / max(indexed_us, 1e-9),
            "compiled_us_per_op": compiled_p50_us,
            "compiled_indexed_us_per_op": indexed_p50_us,
            "compiled_speedup": indexed_p50_us / max(compiled_p50_us, 1e-9),
        },
    )


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


def run_scale_ingest(scale: ScalePreset) -> BenchmarkEntry:
    with _scoped_registry() as registry:
        with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as tmpdir:
            engine = StorageEngine(tmpdir, metrics=registry)
            tippers, world = build_ingest(scale.ingest_population, storage=engine)
            run = run_ingest(tippers, world, scale.ingest_ticks)
            wal_bytes = int(registry.total("storage_wal_bytes_total"))
            engine.close()

    return BenchmarkEntry(
        name="scale_ingest",
        decision_latency=_latency_summary(
            registry.merged_histogram("enforcement_decide_seconds"), "scale_ingest"
        ),
        ingest_throughput_per_s=_throughput(run.sampled, run.elapsed_s),
        wal_bytes=wal_bytes,
        extra={
            "sampled": float(run.sampled),
            "stored": float(run.stored),
            "dropped": float(run.dropped),
            "sensors": float(tippers.sensor_manager.count()),
        },
    )


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


def persona_models() -> Dict[str, PreferenceModel]:
    """One preference model per Westin persona, fit on noiseless decisions."""
    return {
        name: PreferenceModel().fit(generate_decisions(persona, 200, seed=1, noise=0.0))
        for name, persona in PERSONAS.items()
    }


def notification_sweep(
    models: Mapping[str, PreferenceModel], latency: Optional[Histogram] = None
) -> Dict[str, List[int]]:
    """How many of :data:`ADVERTISED` each persona's assistant shows at
    each of :data:`NOTIFICATION_THRESHOLDS`.  Each offer (notify or stay
    silent) is timed into ``latency`` when one is given."""
    series = {}
    for name, model in sorted(models.items()):
        counts = []
        for threshold in NOTIFICATION_THRESHOLDS:
            manager = NotificationManager(
                model, relevance_threshold=threshold, daily_budget=100
            )
            sent = 0
            for index, practice in enumerate(ADVERTISED):
                offer_start = time.perf_counter()
                shown = manager.offer(float(index), practice, "practice-%d" % index)
                if latency is not None:
                    latency.observe(time.perf_counter() - offer_start)
                if shown:
                    sent += 1
            counts.append(sent)
        series[name] = counts
    return series


def run_scale_notifications(scale: ScalePreset) -> BenchmarkEntry:
    models = persona_models()
    mid = NOTIFICATION_THRESHOLDS.index(0.4)
    offer_latency = Histogram("notification_offer_seconds")
    shown = dict.fromkeys(models, 0)
    start = time.perf_counter()
    for _ in range(scale.notification_repeats):
        for name, counts in notification_sweep(models, offer_latency).items():
            shown[name] += counts[mid]
    elapsed = time.perf_counter() - start
    offers = offer_latency.count

    extra = {
        "advertised_practices": float(len(ADVERTISED)),
        "offers": float(offers),
    }
    for name, count in sorted(shown.items()):
        extra["shown_at_0.4_%s" % name] = count / float(scale.notification_repeats)
    return BenchmarkEntry(
        name="scale_notifications",
        decision_latency=_latency_summary(offer_latency, "scale_notifications"),
        ingest_throughput_per_s=_throughput(offers, elapsed),
        extra=extra,
    )


# ----------------------------------------------------------------------
# SCALE-4: week-in-the-life soak
# ----------------------------------------------------------------------
def run_scale_week(scale: ScalePreset) -> BenchmarkEntry:
    with _scoped_registry() as registry:
        start = time.perf_counter()
        result = run_week(
            days=scale.week_days,
            population=scale.week_population,
            ticks_per_day=scale.week_ticks_per_day,
            seed=9,
        )
        elapsed = time.perf_counter() - start

    return BenchmarkEntry(
        name="scale_week",
        decision_latency=_latency_summary(
            registry.merged_histogram("enforcement_decide_seconds"), "scale_week"
        ),
        ingest_throughput_per_s=_throughput(result.observations_sampled, elapsed),
        extra={
            "days": float(scale.week_days),
            "population": float(scale.week_population),
            "sampled": float(result.observations_sampled),
            "stored": float(result.observations_stored),
            "purged": float(result.observations_purged),
            "queries_total": float(result.queries_total),
            "denial_rate": round(result.denial_rate, 6),
        },
    )


# ----------------------------------------------------------------------
# SCALE-5..7: the fault scenarios, run and exported
# ----------------------------------------------------------------------
def _scenario_entry(
    name: str,
    run: Callable[[MetricsRegistry], ScenarioReport],
    extra: Callable[[Any], Dict[str, float]],
) -> BenchmarkEntry:
    """Run one scenario under a fresh registry and export it: admission
    checks per second, the ledger's shed and brownout rates, WAL bytes,
    and the scenario's own ``extra`` numbers.  A run that violates its
    invariants is an error, not a data point."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    report = run(registry)
    elapsed = time.perf_counter() - start
    if not report.ok:
        raise BenchError(
            "%s workload violated its invariants: %s"
            % (name, "; ".join(report.violations))
        )
    return BenchmarkEntry(
        name=name,
        decision_latency=_latency_summary(
            registry.merged_histogram("enforcement_decide_seconds"), name
        ),
        ingest_throughput_per_s=_throughput(report.ledger_checked, elapsed),
        shed_rate=round(report.ledger_shed / max(report.ledger_checked, 1), 6),
        brownout_rate=round(
            report.ledger_brownouts / max(report.ledger_admitted, 1), 6
        ),
        wal_bytes=int(registry.total("storage_wal_bytes_total")),
        extra=extra(report),
    )


def run_scale_overload(scale: ScalePreset) -> BenchmarkEntry:
    """SCALE-5: rush-hour overload, admission on."""
    return _scenario_entry(
        "scale_overload",
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


def run_scale_federate(scale: ScalePreset) -> BenchmarkEntry:
    """SCALE-6: sharded campus federation (roaming, crash, DSAR fan-out)."""
    return _scenario_entry(
        "scale_federate",
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


def run_scale_rebalance(scale: ScalePreset) -> BenchmarkEntry:
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

    return _scenario_entry(
        "scale_rebalance",
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
WORKLOADS: Tuple[Tuple[str, Callable[[ScalePreset], BenchmarkEntry]], ...] = (
    ("scale_enforcement", run_scale_enforcement),
    ("scale_ingest", run_scale_ingest),
    ("scale_notifications", run_scale_notifications),
    ("scale_week", run_scale_week),
    ("scale_overload", run_scale_overload),
    ("scale_federate", run_scale_federate),
    ("scale_rebalance", run_scale_rebalance),
)
