"""Multi-day "week in the life" runs and the capacity soak harness.

Two soak-shaped workloads live here:

- :func:`run_week` drives the complete stack -- capture, retention,
  comfort control, services querying, IoTAs configuring settings per
  persona -- for several simulated days and collects system-level
  metrics.  This is the soak test behind the SCALE-4 benchmark and a
  convenient workload generator for profiling.
- :func:`run_capacity_soak` steps the principal population (1k -> 10k
  -> 100k -> 1M by default) through a WAL-on, admission-on building and
  finds the **max sustainable population** under a latency/memory
  ceiling.  Reports are seeded and byte-reproducible: latency is a
  deterministic cost *model* (rules evaluated per decision + queueing
  backlog), never a wall clock, so two same-seed runs render identical
  text -- the same discipline the chaos/overload reports follow.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policy import catalog
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.errors import AdmissionShedError, NetworkError, ServiceError
from repro.iota.assistant import IoTAssistant
from repro.iota.personas import generate_decisions
from repro.iota.preference_model import PreferenceModel
from repro.irr.mud import auto_provision
from repro.irr.registry import IoTResourceRegistry
from repro.net.admission import AdmissionController, Priority
from repro.net.bus import MessageBus
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, Histogram, MetricsRegistry
from repro.sensors.base import scoped_observation_ids
from repro.services.concierge import SmartConcierge
from repro.services.food_delivery import FoodDeliveryService
from repro.services.meeting import SmartMeeting
from repro.simulation.costmodel import DEFAULT_COST_TABLE, CostTable
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType, build_simple_building
from repro.tippers.bms import TIPPERS


@dataclass
class WeekReport:
    """Aggregate metrics of one multi-day run."""

    days: int
    population: int
    observations_sampled: int = 0
    observations_stored: int = 0
    observations_purged: int = 0
    queries_total: int = 0
    queries_denied: int = 0
    deliveries_attempted: int = 0
    deliveries_made: int = 0
    hvac_actuations: int = 0
    selections: Dict[str, int] = field(default_factory=dict)
    audit_summary: Dict[str, int] = field(default_factory=dict)

    @property
    def denial_rate(self) -> float:
        return self.queries_denied / self.queries_total if self.queries_total else 0.0


def run_week(
    days: int = 5,
    population: int = 30,
    ticks_per_day: int = 24,
    seed: int = 9,
    strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
    compile_decisions: bool = True,
) -> WeekReport:
    """Run ``days`` simulated days and return the metric report.

    Each day: capture sweeps around the clock, comfort control at each
    sweep, a Concierge locate query and a lunch delivery run at noon,
    and a retention sweep at midnight.  On day 0 every inhabitant's
    IoTA trains on persona decisions and configures building settings.
    """
    tippers = make_dbh_tippers(
        strategy=strategy, compile_decisions=compile_decisions
    )
    rooms = [s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)]
    tippers.define_policy(catalog.policy_1_comfort(rooms))
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))

    inhabitants = generate_inhabitants(tippers.spatial, population, seed=seed)
    for person in inhabitants:
        tippers.add_user(person.profile)
    world = BuildingWorld(tippers.spatial, inhabitants, seed=seed)

    bus = MessageBus()
    bus.register("tippers", tippers)
    registry = IoTResourceRegistry("irr-dbh", tippers.spatial)
    bus.register("irr-dbh", registry)
    auto_provision(registry, tippers)

    concierge = SmartConcierge(tippers)
    meetings = SmartMeeting(tippers)
    food = FoodDeliveryService(tippers)

    report = WeekReport(days=days, population=population)

    # A recurring morning meeting gives the meeting service (and its
    # occupancy queries) daily traffic.
    organizer = inhabitants[0].user_id
    attendee = inhabitants[1].user_id if population > 1 else organizer

    # Day 0: every inhabitant's assistant configures settings.
    for index, person in enumerate(inhabitants):
        model = PreferenceModel().fit(
            generate_decisions(person.persona, 120, seed=seed + index, noise=0.05)
        )
        assistant = IoTAssistant(
            person.user_id, bus, model=model, registry_endpoints=["irr-dbh"]
        )
        selection = assistant.configure_building_settings(now=0.0)
        choice = selection.get("location", "?")
        report.selections[choice] = report.selections.get(choice, 0) + 1
        if index % 3 == 0:
            food.subscribe(person.user_id)

    tick_spacing = 86400.0 / ticks_per_day
    for day in range(days):
        morning = day * 86400.0 + 9 * 3600.0
        try:
            meetings.book(
                organizer,
                [attendee],
                start=morning,
                end=morning + 3600.0,
                now=morning - 1800.0,
                title="standup day %d" % day,
            )
        except ServiceError:
            # Every room booked/occupied: acceptable on busy days.
            pass
        for tick in range(ticks_per_day):
            now = day * 86400.0 + tick * tick_spacing
            world.step(now, dt_s=tick_spacing)
            stats = tippers.tick(now, world)
            report.observations_sampled += stats.sampled
            report.observations_stored += stats.stored
            hour = (now % 86400.0) / 3600.0
            if 8.0 <= hour <= 18.0:
                report.hvac_actuations += tippers.run_comfort_control(now)
            if abs(hour - 12.0) < (tick_spacing / 3600.0) / 2.0:
                # Noon: services get busy.
                for person in inhabitants[: max(1, population // 5)]:
                    response = concierge.find_person(person.user_id, now)
                    report.queries_total += 1
                    if not response.allowed:
                        report.queries_denied += 1
                attempts = food.lunch_run(now)
                report.deliveries_attempted += len(attempts)
                report.deliveries_made += sum(1 for a in attempts if a.delivered)
        # Midnight retention sweep.
        report.observations_purged += tippers.run_retention((day + 1) * 86400.0)

    report.audit_summary = tippers.audit.summary()
    return report

# ======================================================================
# Capacity soak: stepped populations under a latency/memory ceiling
# ======================================================================

#: Default population steps: each an order of magnitude past the last.
SOAK_POPULATIONS: Tuple[int, ...] = (1000, 10000, 100000, 1000000)

_SOAK_BUILDING_ID = "bldg-soak"
_SOAK_TIPPERS = "tippers-soak"
_SOAK_REGISTRY = "irr-soak"


@dataclass
class SoakStepReport:
    """One population step of the capacity soak (deterministic fields).

    Every field is an exact count, a seeded-simulation product, or a
    rounded model output -- never a wall clock -- so two same-seed runs
    serialize byte-identically.
    """

    population: int
    active_principals: int
    phantom_per_call: int
    ticks: int
    checked: int = 0
    admitted: int = 0
    shed: int = 0
    brownouts: int = 0
    injected_arrivals: int = 0
    shed_by_class: Dict[str, int] = field(default_factory=dict)
    critical_shed: int = 0
    normal_attempted: int = 0
    normal_shed: int = 0
    deferrable_attempted: int = 0
    deferrable_shed: int = 0
    normal_shed_rate: float = 0.0
    deferrable_shed_rate: float = 0.0
    decisions: int = 0
    rules_p50: float = 0.0
    rules_p99: float = 0.0
    queue_depth_p99: float = 0.0
    modeled_p99_latency_us: float = 0.0
    wal_bytes: int = 0
    stored_observations: int = 0
    est_state_mb: float = 0.0
    sustainable: bool = True
    limits_exceeded: List[str] = field(default_factory=list)

    def line(self) -> str:
        status = "SUSTAINABLE" if self.sustainable else (
            "EXCEEDED[%s]" % ",".join(self.limits_exceeded)
        )
        return (
            "pop=%-8d active=%-4d phantom=%-5d shed=%d/%d "
            "normal_shed_rate=%.6f p99_latency_us=%.3f state_mb=%.3f %s"
            % (
                self.population, self.active_principals,
                self.phantom_per_call, self.shed, self.checked,
                self.normal_shed_rate, self.modeled_p99_latency_us,
                self.est_state_mb, status,
            )
        )


@dataclass
class CapacitySoakReport:
    """The full stepped-population soak: config, steps, and the answer."""

    seed: int
    ticks: int
    active_cap: int
    latency_ceiling_us: float
    memory_ceiling_mb: float
    max_normal_shed_rate: float
    queue_capacity: int
    drain_per_step: float
    populations: List[int] = field(default_factory=list)
    steps: List[SoakStepReport] = field(default_factory=list)
    max_sustainable_population: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def summary_lines(self) -> List[str]:
        lines = [
            "capacity soak: seed=%d ticks=%d active_cap=%d"
            % (self.seed, self.ticks, self.active_cap),
            "ceilings: latency=%.3fus memory=%.3fMB normal_shed_rate<=%.6f"
            % (self.latency_ceiling_us, self.memory_ceiling_mb,
               self.max_normal_shed_rate),
            "admission: queue_capacity=%d drain_per_step=%g"
            % (self.queue_capacity, self.drain_per_step),
        ]
        lines.extend("  " + step.line() for step in self.steps)
        lines.append(
            "max sustainable population: %d" % self.max_sustainable_population
        )
        return lines

    def report_text(self) -> str:
        return "\n".join(self.summary_lines()) + "\n"


def _soak_call(bus, tally, target, method, payload, principal):
    """One admission-checked call; ``tally`` is ``[attempted, shed]``."""
    tally[0] += 1
    try:
        bus.call(target, method, payload, principal=principal)
    except AdmissionShedError:
        tally[1] += 1


def _depth_boundaries(queue_capacity: int) -> Tuple[float, ...]:
    bounds: List[float] = []
    bound = 1
    while bound < queue_capacity:
        bounds.append(float(bound))
        bound *= 2
    bounds.append(float(queue_capacity))
    return tuple(bounds)


def _run_soak_step(
    population: int,
    seed: int,
    ticks: int,
    active_cap: int,
    queue_capacity: int,
    drain_per_step: float,
) -> SoakStepReport:
    """One population step in an isolated registry/WAL/world."""
    registry = MetricsRegistry()
    active = min(population, active_cap)
    phantom = max(0, population // active - 1)
    step = SoakStepReport(
        population=population,
        active_principals=active,
        phantom_per_call=phantom,
        ticks=ticks,
    )
    depth_hist = Histogram(
        "soak_queue_depth", boundaries=_depth_boundaries(queue_capacity)
    )
    with scoped_observation_ids(), tempfile.TemporaryDirectory(
        prefix="repro-soak-"
    ) as wal_dir:
        engine = None
        try:
            from repro.storage.durable import StorageEngine

            engine = StorageEngine(wal_dir, metrics=registry)
            spatial = build_simple_building(
                _SOAK_BUILDING_ID, floors=2, rooms_per_floor=4
            )
            tippers = TIPPERS(
                spatial,
                _SOAK_BUILDING_ID,
                owner_name="Capacity Labs",
                enforce_capture=True,
                metrics=registry,
                storage=engine,
            )
            rooms = sorted(
                s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM)
            )
            for index, room in enumerate(rooms):
                tippers.deploy_sensor(
                    "wifi_access_point", "ap-%02d" % (index + 1), room
                )
                tippers.deploy_sensor(
                    "motion_sensor", "motion-%02d" % (index + 1), room
                )
            tippers.define_policy(
                catalog.policy_service_sharing(_SOAK_BUILDING_ID)
            )
            tippers.define_policy(
                catalog.policy_2_emergency_location(_SOAK_BUILDING_ID)
            )
            tippers.define_policy(catalog.policy_1_comfort(rooms))

            inhabitants = generate_inhabitants(spatial, active, seed=seed)
            for person in inhabitants:
                tippers.add_user(person.profile)
            world = BuildingWorld(spatial, inhabitants, seed=seed)

            controller = AdmissionController(
                seed=seed,
                queue_capacity=queue_capacity,
                high_watermark=0.5,
                shed_watermark=0.8,
                drain_per_step=drain_per_step,
                principal_capacity=64.0,
                principal_refill_per_step=8.0,
                metrics=registry,
            )
            if phantom:
                # The unsimulated cohort: every admission check on a
                # target also lands ``phantom`` phantom arrivals on its
                # queue, scaling backlog with population while the
                # active cohort stays CI-sized.
                controller.install_fault_plane(
                    lambda target, method, _n=phantom: _n
                )

            from repro.obs.tracing import NullTracer

            bus = MessageBus(
                metrics=registry, tracer=NullTracer(), admission=controller
            )
            bus.register(_SOAK_TIPPERS, tippers)
            irr = IoTResourceRegistry(_SOAK_REGISTRY, spatial)
            bus.register(_SOAK_REGISTRY, irr)
            irr.publish_resource(
                "soak-building-policies",
                _SOAK_BUILDING_ID,
                tippers.policy_manager.compile_policy_document(),
                settings=tippers.policy_manager.settings_space.to_document(),
            )

            critical = [0, 0]
            normal = [0, 0]
            deferrable = [0, 0]
            morning = 9 * 3600.0
            for tick in range(ticks):
                now = morning + tick * 60.0
                world.step(now)
                tippers.tick(now, world)
                # CRITICAL: the policy fetch a building must never drop.
                _soak_call(
                    bus, critical, _SOAK_TIPPERS, "get_policy_document",
                    {}, "iota-%s" % inhabitants[0].user_id,
                )
                depth_hist.observe(controller.queue(_SOAK_TIPPERS).depth)
                for person in inhabitants:
                    # NORMAL: one occupancy query per principal.
                    _soak_call(
                        bus, normal, _SOAK_TIPPERS, "locate_user",
                        {
                            "requester_id": "svc-occupancy",
                            "requester_kind": "building_service",
                            "subject_id": person.user_id,
                            "now": now,
                        },
                        "svc-occupancy",
                    )
                    depth_hist.observe(
                        controller.queue(_SOAK_TIPPERS).depth
                    )
                    # DEFERRABLE: one discovery sweep per principal.
                    location = (
                        world.location_of(person.user_id) or _SOAK_BUILDING_ID
                    )
                    _soak_call(
                        bus, deferrable, _SOAK_REGISTRY, "discover",
                        {"space_id": location},
                        "iota-%s" % person.user_id,
                    )
                    depth_hist.observe(
                        controller.queue(_SOAK_REGISTRY).depth
                    )

            ledger = controller.ledger
            step.checked = ledger.checked
            step.admitted = ledger.admitted
            step.shed = ledger.shed
            step.brownouts = ledger.brownouts
            step.injected_arrivals = ledger.injected_arrivals
            step.shed_by_class = dict(sorted(ledger.shed_by_class.items()))
            step.critical_shed = (
                ledger.shed_by_class.get(Priority.CRITICAL.value, 0)
                + critical[1]
            )
            step.normal_attempted, step.normal_shed = normal
            step.deferrable_attempted, step.deferrable_shed = deferrable
            step.normal_shed_rate = round(
                normal[1] / normal[0] if normal[0] else 0.0, 6
            )
            step.deferrable_shed_rate = round(
                deferrable[1] / deferrable[0] if deferrable[0] else 0.0, 6
            )

            rules = registry.merged_histogram("enforcement_rules_evaluated")
            if rules is not None and rules.count:
                step.decisions = rules.count
                step.rules_p50 = float(rules.percentile(50.0) or 0.0)
                step.rules_p99 = float(rules.percentile(99.0) or 0.0)
            if depth_hist.count:
                step.queue_depth_p99 = float(
                    depth_hist.percentile(99.0) or 0.0
                )
            step.wal_bytes = int(registry.total("storage_wal_bytes_total"))
            step.stored_observations = tippers.datastore.count()
        finally:
            if engine is not None:
                engine.close()
    return step


def run_capacity_soak(
    populations: Sequence[int] = SOAK_POPULATIONS,
    seed: int = 17,
    ticks: int = 6,
    active_cap: int = 200,
    latency_ceiling_us: float = 5000.0,
    memory_ceiling_mb: float = 2048.0,
    max_normal_shed_rate: float = 0.05,
    queue_capacity: int = 256,
    drain_per_step: float = 32.0,
    cost_table: Optional[CostTable] = None,
) -> CapacitySoakReport:
    """Step the population and find the max sustainable one.

    Each step runs a WAL-on, admission-on building: an active cohort of
    ``min(population, active_cap)`` simulated principals issues the full
    CRITICAL/NORMAL/DEFERRABLE call mix while the rest of the population
    arrives as phantom backlog through the admission controller's fault
    plane (``population // active - 1`` arrivals per check).  A step is
    *sustainable* when no CRITICAL call was shed, the NORMAL shed rate
    stays within ``max_normal_shed_rate``, and the modeled p99 latency
    and resident-state estimate stay under their ceilings.

    The latency and memory models are deterministic, priced by
    ``cost_table`` (default :data:`~repro.simulation.costmodel.
    DEFAULT_COST_TABLE`, whose per-component costs are derived from the
    committed perf trajectory): modeled p99 latency is one indexed
    decision plus marginal rule work plus queueing delay
    (``us_per_decision + rules_p99 * us_per_rule + queue_depth_p99 *
    us_per_queued_call``); the memory model charges
    ``principal_state_bytes`` per principal and extrapolates measured
    WAL/observation bytes by the phantom ratio.  Two same-seed runs
    produce byte-identical reports.
    """
    if not populations:
        raise ValueError("capacity soak needs at least one population step")
    if any(p < 1 for p in populations):
        raise ValueError("populations must be positive")
    if ticks < 1:
        raise ValueError("ticks must be >= 1")
    if active_cap < 1:
        raise ValueError("active_cap must be >= 1")
    report = CapacitySoakReport(
        seed=seed,
        ticks=ticks,
        active_cap=active_cap,
        latency_ceiling_us=latency_ceiling_us,
        memory_ceiling_mb=memory_ceiling_mb,
        max_normal_shed_rate=max_normal_shed_rate,
        queue_capacity=queue_capacity,
        drain_per_step=drain_per_step,
        populations=list(populations),
    )
    costs = cost_table if cost_table is not None else DEFAULT_COST_TABLE
    for population in populations:
        step = _run_soak_step(
            population, seed, ticks, active_cap, queue_capacity,
            drain_per_step,
        )
        step.modeled_p99_latency_us = costs.modeled_p99_latency_us(
            step.rules_p99, step.queue_depth_p99
        )
        ratio = max(1, population // step.active_principals)
        est_bytes = costs.modeled_state_bytes(
            population, step.wal_bytes, step.stored_observations, ratio
        )
        step.est_state_mb = round(est_bytes / (1024.0 * 1024.0), 3)
        limits: List[str] = []
        if step.critical_shed:
            limits.append("critical-shed")
        if step.normal_shed_rate > max_normal_shed_rate:
            limits.append("normal-shed-rate")
        if step.modeled_p99_latency_us > latency_ceiling_us:
            limits.append("latency-ceiling")
        if step.est_state_mb > memory_ceiling_mb:
            limits.append("memory-ceiling")
        step.limits_exceeded = limits
        step.sustainable = not limits
        report.steps.append(step)
        if step.sustainable and population > report.max_sustainable_population:
            report.max_sustainable_population = population
    return report
