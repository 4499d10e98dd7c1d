"""The chaos scenario: the Figure-1 pipeline under a named fault plan.

A compact building (2 floors x 6 rooms, a handful of inhabitants) runs
capture ticks, IoTA discovery/settings sweeps, and service location
queries while a :class:`~repro.faults.FaultInjector` fires a shipped
fault plan at the bus, datastore, sensors, and policy store.  The run
reports delivered/undelivered/degraded counts, the full fault trace,
and a stable rendering of every enforcement decision -- two runs with
the same seed and plan are byte-identical, which the chaos regression
tests pin.

Everything is locally scoped (own metrics registry, own tracer, own
bus) so chaos runs never leak state into the process-global registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.policy import catalog
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.errors import NetworkError
from repro.faults import FaultInjector, build_plan
from repro.iota.assistant import IoTAssistant
from repro.irr.registry import IoTResourceRegistry
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard, Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType, build_simple_building
from repro.tippers.bms import TIPPERS

BUILDING_ID = "chaos"
REGISTRY_ENDPOINT = "irr-1"
TIPPERS_ENDPOINT = "tippers"


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    plan: str
    seed: int
    population: int
    ticks: int
    delivered: int = 0
    undelivered: int = 0
    degraded: int = 0
    failclosed: int = 0
    stored: int = 0
    write_failures: int = 0
    stalled: int = 0
    decisions: List[str] = field(default_factory=list)
    audit_effects: List[str] = field(default_factory=list)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    trace_text: str = ""
    bus_attempts: int = 0
    bus_logical_calls: int = 0
    bus_retries: int = 0
    bus_dropped: int = 0
    bus_faulted: int = 0
    bus_corrupted: int = 0
    bus_rejected: int = 0
    breaker_states: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan,
            "seed": self.seed,
            "population": self.population,
            "ticks": self.ticks,
            "delivered": self.delivered,
            "undelivered": self.undelivered,
            "degraded": self.degraded,
            "failclosed": self.failclosed,
            "stored": self.stored,
            "write_failures": self.write_failures,
            "stalled": self.stalled,
            "fault_counts": dict(self.fault_counts),
            "faults_fired": sum(self.fault_counts.values()),
            "decisions": list(self.decisions),
            "bus": {
                "attempts": self.bus_attempts,
                "logical_calls": self.bus_logical_calls,
                "retries": self.bus_retries,
                "dropped": self.bus_dropped,
                "faulted": self.bus_faulted,
                "corrupted": self.bus_corrupted,
                "rejected": self.bus_rejected,
            },
            "breaker_states": dict(self.breaker_states),
        }

    def summary_lines(self) -> List[str]:
        lines = [
            "chaos run: plan=%s seed=%d population=%d ticks=%d"
            % (self.plan, self.seed, self.population, self.ticks),
            "queries: delivered=%d undelivered=%d degraded=%d fail-closed=%d"
            % (self.delivered, self.undelivered, self.degraded, self.failclosed),
            "capture: stored=%d write_failures=%d stalled_samples=%d"
            % (self.stored, self.write_failures, self.stalled),
            "bus: attempts=%d logical=%d retries=%d dropped=%d "
            "(faulted=%d corrupted=%d) breaker_rejected=%d"
            % (
                self.bus_attempts,
                self.bus_logical_calls,
                self.bus_retries,
                self.bus_dropped,
                self.bus_faulted,
                self.bus_corrupted,
                self.bus_rejected,
            ),
        ]
        fired = ", ".join(
            "%s=%d" % (kind, count)
            for kind, count in sorted(self.fault_counts.items())
        )
        lines.append("faults fired: %s" % (fired or "none"))
        if self.breaker_states:
            lines.append(
                "breakers: "
                + ", ".join(
                    "%s=%s" % (target, state)
                    for target, state in sorted(self.breaker_states.items())
                )
            )
        return lines


def run_chaos_scenario(
    plan_name: str = "monkey",
    seed: int = 11,
    population: int = 8,
    ticks: int = 6,
    strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
) -> ChaosReport:
    """Run the compact pipeline under ``plan_name`` and report.

    The enforcement engine is the reference interpreter, so every
    decision exercises the (faultable) policy-fetch path.
    """
    report = ChaosReport(
        plan=plan_name, seed=seed, population=population, ticks=ticks
    )
    metrics = MetricsRegistry()
    tracer = Tracer()
    spatial = build_simple_building(BUILDING_ID, floors=2, rooms_per_floor=6)
    tippers = TIPPERS(
        spatial,
        BUILDING_ID,
        strategy=strategy,
        owner_name="Chaos Labs",
        enforce_capture=True,
        # Interpreter: fault steps count policy-store consults.
        compile_decisions=False,
        metrics=metrics,
    )
    rooms = sorted(
        s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM)
    )
    for index, room in enumerate(rooms):
        tippers.deploy_sensor("wifi_access_point", "ap-%02d" % (index + 1), room)
        tippers.deploy_sensor("motion_sensor", "motion-%02d" % (index + 1), room)
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_1_comfort(rooms))

    inhabitants = generate_inhabitants(spatial, population, seed=seed)
    for inhabitant in inhabitants:
        tippers.add_user(inhabitant.profile)
    world = BuildingWorld(spatial, inhabitants, seed=seed)

    bus = MessageBus(metrics=metrics, tracer=tracer, breakers=BreakerBoard())
    bus.register(TIPPERS_ENDPOINT, tippers)
    registry = IoTResourceRegistry(REGISTRY_ENDPOINT, spatial)
    bus.register(REGISTRY_ENDPOINT, registry)
    registry.publish_resource(
        "chaos-building-policies",
        BUILDING_ID,
        tippers.policy_manager.compile_policy_document(),
        settings=tippers.policy_manager.settings_space.to_document(),
    )

    plan = build_plan(plan_name, seed)
    injector = FaultInjector(plan)
    injector.install_bus(bus)
    injector.install_datastore(tippers.datastore)
    injector.install_sensor_manager(tippers.sensor_manager)
    injector.install_policy_store(tippers.store)

    retry_policy = RetryPolicy(seed=seed)
    iota = IoTAssistant(
        inhabitants[0].user_id,
        bus,
        registry_endpoints=[REGISTRY_ENDPOINT],
        metrics=metrics,
        retry_policy=retry_policy,
        call_deadline_s=10.0,
    )

    noon = 12 * 3600.0
    for tick in range(ticks):
        now = noon + tick * 60.0
        world.step(now)
        tippers.tick(now, world)
        location = world.location_of(iota.user_id) or BUILDING_ID
        iota.discover(location, now)
        if tick == 0:
            try:
                iota.configure_building_settings(now + 1.0)
            except NetworkError:
                report.degraded += 1
        for inhabitant in inhabitants:
            try:
                response = bus.call(
                    TIPPERS_ENDPOINT,
                    "locate_user",
                    {
                        "requester_id": "svc-chaos",
                        "requester_kind": "building_service",
                        "subject_id": inhabitant.user_id,
                        "now": now,
                    },
                    retry_policy=retry_policy,
                    deadline=Deadline(10.0),
                )
            except NetworkError:
                report.undelivered += 1
                continue
            report.delivered += 1
            report.decisions.append(
                "tick=%d subject=%s allowed=%s reasons=%s"
                % (
                    tick,
                    inhabitant.user_id,
                    response["allowed"],
                    "|".join(response["reasons"]),
                )
            )

    injector.uninstall()

    report.failclosed = sum(
        1 for record in tippers.audit if "fail-closed deny" in record.reasons
    )
    report.degraded += int(metrics.total("tippers_degraded_total"))
    report.stored = tippers.datastore.count()
    report.write_failures = tippers.datastore.total_write_failures
    report.stalled = sum(
        subsystem.stalled_samples
        for subsystem in tippers.sensor_manager.subsystems()
    )
    report.audit_effects = [record.effect.value for record in tippers.audit]
    report.fault_counts = injector.trace.counts()
    report.trace_text = injector.trace.to_text()
    stats = bus.stats
    report.bus_attempts = stats.calls
    report.bus_logical_calls = stats.logical_calls
    report.bus_retries = stats.retries
    report.bus_dropped = stats.dropped
    report.bus_faulted = stats.faulted
    report.bus_corrupted = stats.corrupted
    report.bus_rejected = stats.rejected
    if bus.breakers is not None:
        report.breaker_states = bus.breakers.states()
    return report
