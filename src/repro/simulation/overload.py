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
seed and plan render byte-identical text (pinned by golden reports),
and :attr:`OverloadReport.violations` machine-checks the acceptance
invariants -- the run exits non-zero if overload protection ever sheds
a CRITICAL call or serves an unmarked degraded response.

Everything is locally scoped (own metrics registry, own bus, own
controller) so overload runs never leak state into the process-global
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.policy import catalog
from repro.core.policy.serialization import preference_to_dict
from repro.net.admission import AdmissionController
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.harness import (
    REGISTRY_ENDPOINT,
    TIPPERS_ENDPOINT,
    ScenarioReport,
    accounted_call,
    check_bus_accounting,
    check_critical_never_shed,
    check_deferrable_shed,
    check_marked_audit,
    locate_payload,
    open_compact_building,
)
from repro.tippers.sensor_manager import SensorHealthSupervisor

BUILDING_ID = "overload"

#: The degradation marker every browned-out decision carries (see
#: RequestManager.locate_user); the scenario greps responses and audit
#: records for it.
BROWNOUT_MARKER = "brownout degraded response"


@dataclass
class OverloadReport(ScenarioReport):
    """Everything one overload run produced, rendered deterministically."""

    admission_enabled: bool = True
    browned_out_responses: int = 0
    brownout_marked_responses: int = 0
    brownout_marked_audit: int = 0
    quarantine_final: List[str] = field(default_factory=list)
    stored: int = 0
    stalled_samples: int = 0
    gated_samples: int = 0
    final_loads: Dict[str, str] = field(default_factory=dict)

    LEDGER_KEYS = (
        "checked", "admitted", "shed", "shed_by_class", "brownouts",
        "injected_arrivals",
    )

    def body_dict(self) -> Dict[str, Any]:
        return {
            "admission_enabled": self.admission_enabled,
            "classes": self.classes_dict(),
            "brownout": {
                "responses": self.browned_out_responses,
                "marked_responses": self.brownout_marked_responses,
                "marked_audit_records": self.brownout_marked_audit,
            },
            "ledger": self.ledger_dict(),
            "quarantine": self.quarantine_dict(
                final=list(self.quarantine_final)
            ),
            "capture": {
                "stored": self.stored,
                "stalled_samples": self.stalled_samples,
                "gated_samples": self.gated_samples,
            },
            "bus": self.bus_dict(),
            "final_loads": dict(self.final_loads),
        }

    def body_lines(self) -> List[str]:
        lines = [
            self.head_line("overload run")
            + " admission=%s" % ("on" if self.admission_enabled else "off"),
            *self.class_lines(),
            "brownout: responses=%d marked_responses=%d marked_audit=%d"
            % (self.browned_out_responses, self.brownout_marked_responses,
               self.brownout_marked_audit),
            self.ledger_line(),
            self.quarantine_line(
                " final=[%s]" % ", ".join(self.quarantine_final)
            ),
            "capture: stored=%d stalled_samples=%d gated_samples=%d"
            % (self.stored, self.stalled_samples, self.gated_samples),
            self.bus_line(),
        ]
        if self.final_loads:
            lines.append(
                "final load levels: "
                + ", ".join(
                    "%s=%s" % (target, level)
                    for target, level in sorted(self.final_loads.items())
                )
            )
        return lines


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
    supervisor = SensorHealthSupervisor(
        miss_threshold=3, probe_rate=0.5, seed=seed, metrics=metrics
    )
    controller: Optional[AdmissionController] = None
    if admission:
        controller = AdmissionController(
            seed=seed,
            queue_capacity=32,
            drain_per_step=1.0,
            principal_capacity=16.0,
            principal_refill_per_step=1.0,
            metrics=metrics,
        )
    tippers, inhabitants, world, bus, injector = open_compact_building(
        report, BUILDING_ID, "Overload Labs", metrics, admission=controller,
        health_supervisor=supervisor,
    )
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
        accounted_call(
            bus, report.critical, TIPPERS_ENDPOINT, "get_policy_document",
            {}, "iota-%s" % inhabitants[0].user_id, retry_policy,
        )

        # DEFERRABLE: one discovery sweep per inhabitant per tick.
        for inhabitant in inhabitants:
            location = world.location_of(inhabitant.user_id) or BUILDING_ID
            accounted_call(
                bus, report.deferrable, REGISTRY_ENDPOINT, "discover",
                {"space_id": location},
                "iota-%s" % inhabitant.user_id, retry_policy,
            )

        # NORMAL: one location query per inhabitant.
        for inhabitant in inhabitants:
            response = accounted_call(
                bus, report.normal, TIPPERS_ENDPOINT, "locate_user",
                locate_payload(inhabitant.user_id, now),
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
            accounted_call(
                bus, report.critical, TIPPERS_ENDPOINT, "submit_preference",
                {"preference": preference_to_dict(preference)},
                "iota-%s" % subject.user_id, retry_policy,
            )
            accounted_call(
                bus, report.critical, TIPPERS_ENDPOINT, "dsar_report",
                {"user_id": subject.user_id, "now": now},
                "iota-%s" % subject.user_id, retry_policy,
            )
            accounted_call(
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
    report.harvest_quarantine(metrics)
    report.quarantine_final = supervisor.quarantined()
    report.harvest_faults(injector)
    report.harvest_bus(bus, controller)
    if controller is not None:
        report.browned_out_responses = controller.ledger.brownouts
        report.final_loads = controller.levels()

    _check_invariants(report, controller)
    return report


def _check_invariants(
    report: OverloadReport, controller: Optional[AdmissionController]
) -> None:
    """The acceptance invariants, machine-checked into ``violations``."""
    check_bus_accounting(report)
    if controller is None:
        return
    check_critical_never_shed(report)
    if report.critical.completed != report.critical.attempted:
        report.violations.append(
            "CRITICAL calls failed: %d of %d did not complete"
            % (
                report.critical.attempted - report.critical.completed,
                report.critical.attempted,
            )
        )
    check_deferrable_shed(report)
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
    check_marked_audit(
        report, report.brownout_marked_audit, report.brownout_marked_responses
    )
