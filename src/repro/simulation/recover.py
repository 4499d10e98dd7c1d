"""The crash-recovery scenario: crash mid-run, recover, check invariants.

Phase 1 runs a compact storage-backed building (capture ticks, location
queries, a preference submission, a DSAR erasure, one mid-run
compaction) under a WAL fault plan until an injected
:class:`~repro.errors.SimulatedCrash` kills the "process".  Phase 2
rebuilds a fresh TIPPERS over the same directory, recovers, and checks
the recovery invariants:

- **audit prefix** -- the recovered audit log is an exact prefix of the
  sequence of audit records submitted before the crash (a tap on the
  storage engine records them *before* each WAL write, so a torn final
  append shows up as a shorter-by-one prefix, never as divergence);
- **erasure durability** -- once a DSAR erasure was acknowledged, no
  recovered observation of the erased subject predates it;
- **retention** -- observations that expired during the downtime are
  gone before the first post-recovery query.

The scenario's :attr:`RecoveryScenarioReport.report_text` contains only
counts, LSNs, and segment names -- no paths, byte offsets, or
observation ids -- so two runs with the same seed render byte-identical
text (pinned by golden reports of ``chaos --recover``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.policy import catalog
from repro.core.policy.base import RequesterKind
from repro.errors import NetworkError, PolicyError, ServiceError, SimulatedCrash
from repro.faults import FaultInjector, build_plan
from repro.obs.metrics import MetricsRegistry
from repro.simulation.harness import (
    ScenarioReport,
    build_compact_building,
    check_nothing_resurrected,
    storage_directory,
)
from repro.simulation.inhabitants import Inhabitant
from repro.simulation.mobility import BuildingWorld
from repro.storage.durable import StorageEngine
from repro.storage.recovery import RecoveryReport
from repro.tippers.bms import TIPPERS
from repro.tippers.dsar import erase_subject

BUILDING_ID = "durable"

#: The building sits dark for just over a week before it is recovered,
#: so the comfort policy's P7D retention bites during recovery.
DEFAULT_DOWNTIME_S = 8 * 86400.0


def _canonical(data: Dict[str, Any]) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


@dataclass
class RecoveryScenarioReport(ScenarioReport):
    """One crash+recover cycle, rendered deterministically."""

    crashed: bool = False
    crash_step: int = -1
    crash_detail: str = ""
    ticks_completed: int = 0
    submitted_audit: int = 0
    pre_crash_stored: int = 0
    preference_submitted: bool = False
    erase_done: bool = False
    erased_user: str = ""
    recovery: Optional[RecoveryReport] = None
    audit_prefix_ok: bool = False
    erasure_ok: bool = False
    retention_ok: bool = False

    def body_dict(self) -> Dict[str, Any]:
        return {
            "crashed": self.crashed,
            "crash_step": self.crash_step,
            "crash_detail": self.crash_detail,
            "ticks_completed": self.ticks_completed,
            "submitted_audit": self.submitted_audit,
            "pre_crash_stored": self.pre_crash_stored,
            "preference_submitted": self.preference_submitted,
            "erase_done": self.erase_done,
            "erased_user": self.erased_user,
            "recovery": None if self.recovery is None else self.recovery.to_dict(),
            "invariants": {
                "audit_prefix": self.audit_prefix_ok,
                "erasure": self.erasure_ok,
                "retention": self.retention_ok,
            },
        }

    def body_lines(self) -> List[str]:
        lines = [
            self.head_line("recovery scenario"),
            "crash: crashed=%s step=%d detail=%s ticks_completed=%d"
            % (self.crashed, self.crash_step, self.crash_detail or "none",
               self.ticks_completed),
            "pre-crash: stored=%d audit_submitted=%d preference=%s erase=%s"
            % (self.pre_crash_stored, self.submitted_audit,
               self.preference_submitted, self.erase_done),
        ]
        if self.recovery is not None:
            lines.extend(self.recovery.lines())
        lines.append(
            "invariants: audit_prefix=%s erasure=%s retention=%s"
            % (self.audit_prefix_ok, self.erasure_ok, self.retention_ok)
        )
        return lines


def _build_tippers(
    report: RecoveryScenarioReport, storage: StorageEngine,
    metrics: MetricsRegistry,
) -> Tuple[TIPPERS, List[Inhabitant]]:
    return build_compact_building(
        BUILDING_ID, "Durable Labs", report.population, report.seed,
        # Interpreter: fault steps count policy-store consults.
        compile_decisions=False,
        metrics=metrics,
        storage=storage,
    )


def run_recovery_scenario(
    plan_name: str = "torn-storage",
    seed: int = 11,
    population: int = 8,
    ticks: int = 6,
    directory: Optional[str] = None,
    segment_bytes: int = 8 * 1024,
    downtime_s: float = DEFAULT_DOWNTIME_S,
) -> RecoveryScenarioReport:
    """Crash a storage-backed run, recover it, and check the invariants.

    When ``directory`` is omitted a temporary one is created and removed
    afterwards; pass a directory to keep the files for inspection
    (``python -m repro recover --dir`` can then replay them).
    """
    report = RecoveryScenarioReport(
        plan=plan_name, seed=seed, population=population, ticks=ticks
    )
    with storage_directory(directory, "repro-recover-") as root:
        _run_phases(report, root, segment_bytes, downtime_s)
    return report


def _run_phases(
    report: RecoveryScenarioReport,
    directory: str,
    segment_bytes: int,
    downtime_s: float,
) -> None:
    seed = report.seed
    # ------------------------------------------------------------------
    # Phase 1: run until the injected crash
    # ------------------------------------------------------------------
    metrics = MetricsRegistry()
    storage = StorageEngine(directory, segment_bytes=segment_bytes, metrics=metrics)
    tippers, inhabitants = _build_tippers(report, storage, metrics)
    world = BuildingWorld(tippers.spatial, inhabitants, seed=seed)

    submitted_audit: List[str] = []

    def audit_tap(record_type: str, data: Dict[str, Any]) -> None:
        if record_type == "audit":
            submitted_audit.append(_canonical(data))

    storage.taps.append(audit_tap)

    plan = build_plan(report.plan, seed)
    injector = FaultInjector(plan)
    injector.install_datastore(tippers.datastore)
    injector.install_sensor_manager(tippers.sensor_manager)
    injector.install_policy_store(tippers.store)
    injector.install_storage_engine(storage)

    erased_user = inhabitants[1].user_id
    report.erased_user = erased_user
    noon = 12 * 3600.0
    now = noon
    erase_now = -1.0
    try:
        for tick in range(report.ticks):
            now = noon + tick * 60.0
            world.step(now)
            tippers.tick(now, world)
            for inhabitant in inhabitants:
                try:
                    tippers.locate_user(
                        "svc-recover", RequesterKind.BUILDING_SERVICE,
                        inhabitant.user_id, now,
                    )
                except (NetworkError, ServiceError, PolicyError):
                    pass
            if tick == 0:
                # Everything below lands before the shipped WAL fault
                # windows open (start >= 200), so the crash hits plain
                # capture later and these records must survive it.
                tippers.submit_preference(
                    catalog.preference_2_no_location(inhabitants[0].user_id)
                )
                report.preference_submitted = True
                # Fold the first tick into a snapshot so recovery
                # exercises the snapshot-then-log path, not just the log.
                storage.compact()
                # Erase *after* compaction: the erase record stays in
                # the WAL, so recovery must replay it and drop the
                # subject's snapshotted observations.
                erase_now = now + 0.5
                erase_subject(tippers, erased_user, erase_now)
                report.erase_done = True
            report.ticks_completed = tick + 1
    except SimulatedCrash as crash:
        report.crashed = True
        report.crash_step = injector.step - 1
        report.crash_detail = crash.__class__.__name__
    finally:
        injector.uninstall()
        storage.close()
    report.submitted_audit = len(submitted_audit)
    report.pre_crash_stored = tippers.datastore.count()
    report.harvest_faults(injector)

    # ------------------------------------------------------------------
    # Phase 2: a fresh process over the same directory
    # ------------------------------------------------------------------
    from repro.tippers.persistence import audit_record_to_dict

    metrics2 = MetricsRegistry()
    storage2 = StorageEngine(directory, segment_bytes=segment_bytes, metrics=metrics2)
    recovered, _ = _build_tippers(report, storage2, metrics2)
    recover_now = now + downtime_s
    recovery = recovered.recover(recover_now)
    report.recovery = recovery

    # Invariant 1: recovered audit is an exact prefix of what was
    # submitted (same records, same order, nothing extra or rewritten).
    recovered_lines = [
        _canonical(audit_record_to_dict(record)) for record in recovered.audit
    ]
    report.audit_prefix_ok = (
        len(recovered_lines) <= len(submitted_audit)
        and recovered_lines == submitted_audit[: len(recovered_lines)]
    )
    if not report.audit_prefix_ok:
        report.violations.append(
            "recovered audit (%d records) is not a prefix of the submitted "
            "sequence (%d records)" % (len(recovered_lines), len(submitted_audit))
        )

    # Invariant 2: an acknowledged erasure survives the crash -- no
    # recovered observation of the erased subject predates it.
    # (Observations captured after the erasure are legitimately new.)
    resurrected = 0
    if report.erase_done:
        resurrected = sum(
            1
            for obs in recovered.datastore.query(subject_id=erased_user)
            if obs.timestamp <= erase_now
        )
    report.erasure_ok = resurrected == 0
    check_nothing_resurrected(
        report, resurrected,
        "recovery resurrected %d erased observation(s) of the DSAR subject"
        % resurrected,
    )

    # Invariant 3: nothing older than its stream's retention survived
    # the downtime.
    stale = 0
    for sensor_type, retention in sorted(
        recovered.policy_manager.retention_by_sensor_type().items()
    ):
        cutoff = recover_now - retention
        stale += sum(
            1
            for obs in recovered.datastore.query(sensor_type=sensor_type)
            if obs.timestamp < cutoff
        )
    report.retention_ok = stale == 0
    if not report.retention_ok:
        report.violations.append(
            "%d observation(s) outlived their retention through recovery" % stale
        )
    storage2.close()
