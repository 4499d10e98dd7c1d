"""The chaos scenario: the Figure-1 pipeline under a named fault plan.

A compact building (2 floors x 6 rooms, a handful of inhabitants) runs
capture ticks, IoTA discovery/settings sweeps, and service location
queries while a :class:`~repro.faults.FaultInjector` fires a shipped
fault plan at the bus, datastore, sensors, and policy store.  The run
reports delivered/undelivered/degraded counts, the full fault trace,
and a stable rendering of every enforcement decision -- two runs with
the same seed and plan are byte-identical, which the chaos regression
tests and the golden reports pin.  :attr:`ChaosReport.violations`
machine-checks the bus accounting identity and that every faulted
policy fetch failed closed.

Everything is locally scoped (own metrics registry, own tracer, own
bus) so chaos runs never leak state into the process-global registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.reasoner.resolution import ResolutionStrategy
from repro.errors import NetworkError
from repro.iota.assistant import IoTAssistant
from repro.net.resilience import Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.harness import (
    REGISTRY_ENDPOINT,
    TIPPERS_ENDPOINT,
    ScenarioReport,
    check_bus_accounting,
    locate_payload,
    open_compact_building,
)

BUILDING_ID = "chaos"


@dataclass
class ChaosReport(ScenarioReport):
    """Everything one chaos run produced."""

    delivered: int = 0
    undelivered: int = 0
    degraded: int = 0
    failclosed: int = 0
    stored: int = 0
    write_failures: int = 0
    stalled: int = 0
    decisions: List[str] = field(default_factory=list)
    audit_effects: List[str] = field(default_factory=list)
    bus_dropped: int = 0
    bus_corrupted: int = 0
    bus_rejected: int = 0
    breaker_states: Dict[str, str] = field(default_factory=dict)

    def body_dict(self) -> Dict[str, Any]:
        return {
            "delivered": self.delivered,
            "undelivered": self.undelivered,
            "degraded": self.degraded,
            "failclosed": self.failclosed,
            "stored": self.stored,
            "write_failures": self.write_failures,
            "stalled": self.stalled,
            "faults_fired": sum(self.fault_counts.values()),
            "decisions": list(self.decisions),
            "bus": {
                "attempts": self.bus_attempts,
                "logical_calls": self.bus_logical_calls,
                "retries": self.bus_retries,
                "dropped": self.bus_dropped,
                "corrupted": self.bus_corrupted,
                "rejected": self.bus_rejected,
            },
            "breaker_states": dict(self.breaker_states),
        }

    def body_lines(self) -> List[str]:
        lines = [
            self.head_line("chaos run"),
            "queries: delivered=%d undelivered=%d degraded=%d fail-closed=%d"
            % (self.delivered, self.undelivered, self.degraded, self.failclosed),
            "capture: stored=%d write_failures=%d stalled_samples=%d"
            % (self.stored, self.write_failures, self.stalled),
            "bus: attempts=%d logical=%d retries=%d dropped=%d "
            "(corrupted=%d) breaker_rejected=%d"
            % (
                self.bus_attempts,
                self.bus_logical_calls,
                self.bus_retries,
                self.bus_dropped,
                self.bus_corrupted,
                self.bus_rejected,
            ),
        ]
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
    tippers, inhabitants, world, bus, injector = open_compact_building(
        report, BUILDING_ID, "Chaos Labs", metrics,
        strategy=strategy,
        # Interpreter: fault steps count policy-store consults.
        compile_decisions=False,
    )
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
                    locate_payload(inhabitant.user_id, now, "svc-chaos"),
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
    report.harvest_faults(injector)
    report.harvest_bus(bus)
    stats = bus.stats
    report.bus_dropped = stats.dropped
    report.bus_corrupted = stats.corrupted
    report.bus_rejected = stats.rejected
    if bus.breakers is not None:
        report.breaker_states = bus.breakers.states()
    _check_invariants(report)
    return report


def _check_invariants(report: ChaosReport) -> None:
    """The acceptance invariants, machine-checked into ``violations``."""
    check_bus_accounting(report)
    # Each decision makes one policy fetch, so every faulted fetch
    # must surface as exactly one audited fail-closed deny.
    fetch_faults = report.fault_counts.get("policy_fetch_fail", 0)
    if report.failclosed != fetch_faults:
        report.violations.append(
            "fail-closed: %d audited fail-closed denies for %d faulted "
            "policy fetches" % (report.failclosed, fetch_faults)
        )
