"""The overload scenario: the pipeline under admission-controlled load.

A compact building runs capture ticks and a mixed bus workload -- the
three admission priority classes side by side -- while a fault plan
(normally ``rush-hour``) injects phantom arrival bursts into the
admission controller's topic queues and stalls one access point:

- CRITICAL: a policy fetch every tick, a mid-run preference submission,
  and a mid-run DSAR report + erasure.  These must **all** complete (or
  fail closed with an audited DENY); zero may be shed.
- NORMAL: one location query per inhabitant per tick.  Between the
  watermarks these are admitted *browned out* -- served at coarser
  granularity with an explicit degradation marker in the audit record.
- DEFERRABLE: IRR discovery sweeps.  These shed first; under the
  rush-hour plan their shed rate must be > 0.

The report carries only counts and booleans, so two runs with the same
seed and plan render byte-identical text (the ``overload`` CLI and CI
diff them), and :attr:`OverloadReport.violations` machine-checks the
acceptance invariants -- the run exits non-zero if overload protection
ever sheds a CRITICAL call or serves an unmarked degraded response.

Everything is locally scoped (own metrics registry, own bus, own
controller) so overload runs never leak state into the process-global
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.policy import catalog
from repro.core.policy.serialization import preference_to_dict
from repro.errors import AdmissionShedError, NetworkError
from repro.faults import FaultInjector, build_plan
from repro.irr.registry import IoTResourceRegistry
from repro.net.admission import AdmissionController, Priority
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard, Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType, build_simple_building
from repro.tippers.bms import TIPPERS
from repro.tippers.sensor_manager import SensorHealthSupervisor

BUILDING_ID = "overload"
REGISTRY_ENDPOINT = "irr-1"
TIPPERS_ENDPOINT = "tippers"

#: The degradation marker every browned-out decision carries (see
#: RequestManager.locate_user); the scenario greps responses and audit
#: records for it.
BROWNOUT_MARKER = "brownout degraded response"


@dataclass
class ClassOutcome:
    """What happened to one priority class's calls."""

    attempted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
        }


@dataclass
class OverloadReport:
    """Everything one overload run produced, rendered deterministically."""

    plan: str
    seed: int
    population: int
    ticks: int
    admission_enabled: bool = True
    critical: ClassOutcome = field(default_factory=ClassOutcome)
    normal: ClassOutcome = field(default_factory=ClassOutcome)
    deferrable: ClassOutcome = field(default_factory=ClassOutcome)
    browned_out_responses: int = 0
    brownout_marked_responses: int = 0
    brownout_marked_audit: int = 0
    injected_arrivals: int = 0
    ledger_checked: int = 0
    ledger_admitted: int = 0
    ledger_shed: int = 0
    ledger_shed_by_class: Dict[str, int] = field(default_factory=dict)
    ledger_brownouts: int = 0
    quarantine_events: int = 0
    quarantine_readmissions: int = 0
    quarantine_final: List[str] = field(default_factory=list)
    stored: int = 0
    stalled_samples: int = 0
    gated_samples: int = 0
    bus_attempts: int = 0
    bus_logical_calls: int = 0
    bus_retries: int = 0
    bus_shed: int = 0
    final_loads: Dict[str, str] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    trace_text: str = ""
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan,
            "seed": self.seed,
            "population": self.population,
            "ticks": self.ticks,
            "admission_enabled": self.admission_enabled,
            "classes": {
                "critical": self.critical.to_dict(),
                "normal": self.normal.to_dict(),
                "deferrable": self.deferrable.to_dict(),
            },
            "brownout": {
                "responses": self.browned_out_responses,
                "marked_responses": self.brownout_marked_responses,
                "marked_audit_records": self.brownout_marked_audit,
            },
            "ledger": {
                "checked": self.ledger_checked,
                "admitted": self.ledger_admitted,
                "shed": self.ledger_shed,
                "shed_by_class": dict(self.ledger_shed_by_class),
                "brownouts": self.ledger_brownouts,
                "injected_arrivals": self.injected_arrivals,
            },
            "quarantine": {
                "events": self.quarantine_events,
                "readmissions": self.quarantine_readmissions,
                "final": list(self.quarantine_final),
            },
            "capture": {
                "stored": self.stored,
                "stalled_samples": self.stalled_samples,
                "gated_samples": self.gated_samples,
            },
            "bus": {
                "attempts": self.bus_attempts,
                "logical_calls": self.bus_logical_calls,
                "retries": self.bus_retries,
                "shed": self.bus_shed,
            },
            "final_loads": dict(self.final_loads),
            "fault_counts": dict(self.fault_counts),
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def summary_lines(self) -> List[str]:
        lines = [
            "overload run: plan=%s seed=%d population=%d ticks=%d admission=%s"
            % (self.plan, self.seed, self.population, self.ticks,
               "on" if self.admission_enabled else "off"),
            "critical:   attempted=%d completed=%d shed=%d failed=%d"
            % (self.critical.attempted, self.critical.completed,
               self.critical.shed, self.critical.failed),
            "normal:     attempted=%d completed=%d shed=%d failed=%d"
            % (self.normal.attempted, self.normal.completed,
               self.normal.shed, self.normal.failed),
            "deferrable: attempted=%d completed=%d shed=%d failed=%d "
            "(shed_rate=%.3f)"
            % (self.deferrable.attempted, self.deferrable.completed,
               self.deferrable.shed, self.deferrable.failed,
               self.deferrable.shed_rate),
            "brownout: responses=%d marked_responses=%d marked_audit=%d"
            % (self.browned_out_responses, self.brownout_marked_responses,
               self.brownout_marked_audit),
            "admission ledger: checked=%d admitted=%d shed=%d brownouts=%d "
            "injected_arrivals=%d"
            % (self.ledger_checked, self.ledger_admitted, self.ledger_shed,
               self.ledger_brownouts, self.injected_arrivals),
            "quarantine: events=%d readmissions=%d final=[%s]"
            % (self.quarantine_events, self.quarantine_readmissions,
               ", ".join(self.quarantine_final)),
            "capture: stored=%d stalled_samples=%d gated_samples=%d"
            % (self.stored, self.stalled_samples, self.gated_samples),
            "bus: attempts=%d logical=%d retries=%d shed=%d"
            % (self.bus_attempts, self.bus_logical_calls, self.bus_retries,
               self.bus_shed),
        ]
        if self.final_loads:
            lines.append(
                "final load levels: "
                + ", ".join(
                    "%s=%s" % (target, level)
                    for target, level in sorted(self.final_loads.items())
                )
            )
        fired = ", ".join(
            "%s=%d" % (kind, count)
            for kind, count in sorted(self.fault_counts.items())
        )
        lines.append("faults fired: %s" % (fired or "none"))
        for violation in self.violations:
            lines.append("VIOLATION: %s" % violation)
        lines.append("result: %s" % ("OK" if self.ok else "FAILED"))
        return lines

    @property
    def report_text(self) -> str:
        return "".join(line + "\n" for line in self.summary_lines())


def _call(
    bus: MessageBus,
    outcome: ClassOutcome,
    target: str,
    method: str,
    payload: Dict[str, Any],
    principal: str,
    retry_policy: RetryPolicy,
) -> Optional[Dict[str, Any]]:
    """One accounted workload call; None when shed or failed."""
    outcome.attempted += 1
    try:
        response = bus.call(
            target,
            method,
            payload,
            retry_policy=retry_policy,
            deadline=Deadline(10.0),
            principal=principal,
        )
    except AdmissionShedError:
        outcome.shed += 1
        return None
    except NetworkError:
        outcome.failed += 1
        return None
    outcome.completed += 1
    return response


def run_overload_scenario(
    plan_name: str = "rush-hour",
    seed: int = 11,
    population: int = 8,
    ticks: int = 12,
    admission: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> OverloadReport:
    """Run the mixed-class workload under ``plan_name`` and report.

    ``admission=False`` runs the identical workload with no admission
    controller on the bus -- the ablation the overload benchmark uses to
    show what the protection buys.  ``metrics`` lets a caller (the bench
    trajectory) keep the run's registry for latency export; by default
    the run stays locally scoped and leaks nothing.
    """
    report = OverloadReport(
        plan=plan_name,
        seed=seed,
        population=population,
        ticks=ticks,
        admission_enabled=admission,
    )
    metrics = metrics if metrics is not None else MetricsRegistry()
    tracer = Tracer()
    spatial = build_simple_building(BUILDING_ID, floors=2, rooms_per_floor=6)
    supervisor = SensorHealthSupervisor(
        miss_threshold=3, probe_rate=0.5, seed=seed, metrics=metrics
    )
    tippers = TIPPERS(
        spatial,
        BUILDING_ID,
        owner_name="Overload Labs",
        enforce_capture=True,
        metrics=metrics,
        health_supervisor=supervisor,
    )
    rooms = sorted(s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM))
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

    controller: Optional[AdmissionController] = None
    if admission:
        controller = AdmissionController(
            seed=seed,
            queue_capacity=32,
            high_watermark=0.5,
            shed_watermark=0.8,
            drain_per_step=1.0,
            principal_capacity=16.0,
            principal_refill_per_step=1.0,
            metrics=metrics,
        )
    bus = MessageBus(
        metrics=metrics,
        tracer=tracer,
        breakers=BreakerBoard(),
        admission=controller,
    )
    bus.register(TIPPERS_ENDPOINT, tippers)
    registry = IoTResourceRegistry(REGISTRY_ENDPOINT, spatial)
    bus.register(REGISTRY_ENDPOINT, registry)
    registry.publish_resource(
        "overload-building-policies",
        BUILDING_ID,
        tippers.policy_manager.compile_policy_document(),
        settings=tippers.policy_manager.settings_space.to_document(),
    )

    plan = build_plan(plan_name, seed)
    injector = FaultInjector(plan)
    injector.install_bus(bus)
    injector.install_datastore(tippers.datastore)
    injector.install_sensor_manager(tippers.sensor_manager)
    if controller is not None:
        injector.install_admission(controller)

    retry_policy = RetryPolicy(seed=seed)
    noon = 8 * 3600.0  # the morning rush
    erase_tick = max(1, ticks // 2)
    for tick in range(ticks):
        now = noon + tick * 60.0
        world.step(now)
        tippers.tick(now, world)

        # CRITICAL: the enforcement pipeline keeps fetching policy.
        _call(
            bus, report.critical, TIPPERS_ENDPOINT, "get_policy_document",
            {}, "iota-%s" % inhabitants[0].user_id, retry_policy,
        )

        # DEFERRABLE: one discovery sweep per inhabitant per tick.
        for inhabitant in inhabitants:
            location = world.location_of(inhabitant.user_id) or BUILDING_ID
            _call(
                bus, report.deferrable, REGISTRY_ENDPOINT, "discover",
                {"space_id": location},
                "iota-%s" % inhabitant.user_id, retry_policy,
            )

        # NORMAL: one location query per inhabitant.
        for inhabitant in inhabitants:
            response = _call(
                bus, report.normal, TIPPERS_ENDPOINT, "locate_user",
                {
                    "requester_id": "svc-occupancy",
                    "requester_kind": "building_service",
                    "subject_id": inhabitant.user_id,
                    "now": now,
                },
                "svc-occupancy", retry_policy,
            )
            if response is not None and any(
                BROWNOUT_MARKER in reason for reason in response["reasons"]
            ):
                report.brownout_marked_responses += 1

        # CRITICAL mid-run: a preference submission and a DSAR cycle.
        if tick == erase_tick:
            subject = inhabitants[-1]
            preference = catalog.preference_2_no_location(subject.user_id)
            _call(
                bus, report.critical, TIPPERS_ENDPOINT, "submit_preference",
                {"preference": preference_to_dict(preference)},
                "iota-%s" % subject.user_id, retry_policy,
            )
            _call(
                bus, report.critical, TIPPERS_ENDPOINT, "dsar_report",
                {"user_id": subject.user_id, "now": now},
                "iota-%s" % subject.user_id, retry_policy,
            )
            _call(
                bus, report.critical, TIPPERS_ENDPOINT, "dsar_erase",
                {"user_id": subject.user_id, "now": now},
                "iota-%s" % subject.user_id, retry_policy,
            )

    injector.uninstall()

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    report.brownout_marked_audit = sum(
        1
        for record in tippers.audit
        if any(BROWNOUT_MARKER in reason for reason in record.reasons)
    )
    report.stored = tippers.datastore.count()
    report.stalled_samples = sum(
        subsystem.stalled_samples
        for subsystem in tippers.sensor_manager.subsystems()
    )
    report.gated_samples = sum(
        subsystem.gated_samples
        for subsystem in tippers.sensor_manager.subsystems()
    )
    report.quarantine_events = int(metrics.total("quarantine_events_total"))
    report.quarantine_readmissions = int(
        metrics.total("quarantine_readmissions_total")
    )
    report.quarantine_final = supervisor.quarantined()
    report.fault_counts = injector.trace.counts()
    report.trace_text = injector.trace.to_text()
    stats = bus.stats
    report.bus_attempts = stats.calls
    report.bus_logical_calls = stats.logical_calls
    report.bus_retries = stats.retries
    report.bus_shed = stats.shed
    if controller is not None:
        ledger = controller.ledger
        report.ledger_checked = ledger.checked
        report.ledger_admitted = ledger.admitted
        report.ledger_shed = ledger.shed
        report.ledger_shed_by_class = dict(sorted(ledger.shed_by_class.items()))
        report.ledger_brownouts = ledger.brownouts
        report.injected_arrivals = ledger.injected_arrivals
        report.browned_out_responses = ledger.brownouts
        report.final_loads = controller.levels()

    _check_invariants(report, controller)
    return report


def _check_invariants(
    report: OverloadReport, controller: Optional[AdmissionController]
) -> None:
    """The acceptance invariants, machine-checked into ``violations``."""
    if report.bus_attempts != report.bus_logical_calls + report.bus_retries:
        report.violations.append(
            "bus accounting: attempts (%d) != logical (%d) + retries (%d)"
            % (report.bus_attempts, report.bus_logical_calls, report.bus_retries)
        )
    if controller is None:
        return
    critical_shed = report.ledger_shed_by_class.get(
        Priority.CRITICAL.value, 0
    )
    if critical_shed or report.critical.shed:
        report.violations.append(
            "CRITICAL calls were shed (ledger=%d observed=%d)"
            % (critical_shed, report.critical.shed)
        )
    if report.critical.completed != report.critical.attempted:
        report.violations.append(
            "CRITICAL calls failed: %d of %d did not complete"
            % (
                report.critical.attempted - report.critical.completed,
                report.critical.attempted,
            )
        )
    if report.deferrable.shed == 0:
        report.violations.append("DEFERRABLE shed rate is 0 under overload")
    if report.ledger_checked != report.ledger_admitted + report.ledger_shed:
        report.violations.append(
            "admission ledger: checked (%d) != admitted (%d) + shed (%d)"
            % (report.ledger_checked, report.ledger_admitted, report.ledger_shed)
        )
    if report.bus_shed != report.ledger_shed:
        report.violations.append(
            "bus shed counter (%d) disagrees with admission ledger (%d)"
            % (report.bus_shed, report.ledger_shed)
        )
    if report.brownout_marked_responses != report.ledger_brownouts:
        report.violations.append(
            "brownout markers: %d marked responses for %d browned-out "
            "admissions" % (
                report.brownout_marked_responses, report.ledger_brownouts
            )
        )
    if report.brownout_marked_audit < report.brownout_marked_responses:
        report.violations.append(
            "audit trail: %d marked records for %d marked responses"
            % (report.brownout_marked_audit, report.brownout_marked_responses)
        )
