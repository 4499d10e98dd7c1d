"""What the five fault scenarios share.

``chaos``, ``recover``, ``overload``, ``federate`` and ``rebalance``
differ in control flow -- a tick loop, a crash-then-recover process
pair, migration waves -- but they build, account, check and report the
same way:

- :class:`ScenarioReport` is every report's base: the
  ``plan``/``seed``/``population``/``ticks`` head, the shared
  accounting (priority classes, bus, admission ledger, sensor
  quarantine), and the ``faults fired:`` / ``VIOLATION:`` /
  ``result:`` tail of both the text and the JSON.
  :class:`CampusReport` adds what the two campus scenarios share.
- :class:`ClassOutcome` and :func:`accounted` / :func:`accounted_call`
  tally one priority class of a workload.
- Each ``check_*`` function is one named invariant; it appends a fixed
  message to ``report.violations`` when the invariant fails.
- The builders: the compact test building (alone, or on a bus under a
  fault plan), the sharded campus behind its admission controller, the
  campus DSAR cycle and the physical-absence sweep.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.errors import AdmissionShedError, NetworkError
from repro.faults import FaultInjector, build_plan
from repro.federation import Campus, campus_access_report, campus_erase_subject
from repro.federation.campus import build_compact_tippers
from repro.iota.assistant import IoTAssistant
from repro.irr.registry import IoTResourceRegistry
from repro.net.admission import AdmissionController, Priority
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard, Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simulation.inhabitants import Inhabitant, generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import build_simple_building
from repro.storage.recovery import RecoveredState, RecoveryReport, recover
from repro.tippers.bms import TIPPERS

TIPPERS_ENDPOINT = "tippers"
REGISTRY_ENDPOINT = "irr-1"


def render_counts(counts: Dict[str, int]) -> str:
    """``a=1, b=2`` in key order: how a report renders a tally."""
    return ", ".join("%s=%d" % (key, counts[key]) for key in sorted(counts))


def locate_payload(
    subject_id: str, now: float, requester_id: str = "svc-occupancy"
) -> Dict[str, Any]:
    """A building service's ``locate_user`` request for ``subject_id``."""
    return {
        "requester_id": requester_id,
        "requester_kind": "building_service",
        "subject_id": subject_id,
        "now": now,
    }


def has_marker(reasons: Iterable[str], prefix: str) -> bool:
    """Whether a decision's reasons carry a ``prefix``-marked note."""
    return any(reason.startswith(prefix) for reason in reasons)


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
        return dataclasses.asdict(self)

    def line(self, label: str, note: str = "") -> str:
        return "%-11s attempted=%d completed=%d shed=%d failed=%d%s" % (
            label, self.attempted, self.completed, self.shed, self.failed,
            note,
        )


def accounted(
    outcome: ClassOutcome,
    call: Callable[[], Dict[str, Any]],
    failures: Tuple[Type[Exception], ...] = (NetworkError,),
) -> Optional[Dict[str, Any]]:
    """Make one workload ``call`` and tally it in ``outcome``; None when
    it was shed or failed with one of ``failures``."""
    outcome.attempted += 1
    try:
        response = call()
    except AdmissionShedError:
        outcome.shed += 1
        return None
    except failures:
        outcome.failed += 1
        return None
    outcome.completed += 1
    return response


def accounted_call(
    bus: MessageBus,
    outcome: ClassOutcome,
    target: str,
    method: str,
    payload: Dict[str, Any],
    principal: str,
    retry_policy: RetryPolicy,
) -> Optional[Dict[str, Any]]:
    """One accounted bus call under a 10 s deadline."""
    return accounted(outcome, lambda: bus.call(
        target, method, payload, retry_policy=retry_policy,
        deadline=Deadline(10.0), principal=principal,
    ))


@dataclass
class ScenarioReport:
    """The head, accounting and tail every scenario report shares.

    A subclass adds its own fields and renders them, in its own order,
    from :meth:`body_lines` and :meth:`body_dict`, using the shared
    ``*_line`` / ``*_dict`` renderings for the accounting it shows.
    Accounting a scenario does not exercise stays zero, unrendered.
    """

    plan: str
    seed: int
    population: int
    ticks: int
    critical: ClassOutcome = field(default_factory=ClassOutcome)
    normal: ClassOutcome = field(default_factory=ClassOutcome)
    deferrable: ClassOutcome = field(default_factory=ClassOutcome)
    bus_attempts: int = 0
    bus_logical_calls: int = 0
    bus_retries: int = 0
    bus_shed: int = 0
    ledger_checked: int = 0
    ledger_admitted: int = 0
    ledger_shed: int = 0
    ledger_shed_by_class: Dict[str, int] = field(default_factory=dict)
    ledger_brownouts: int = 0
    injected_arrivals: int = 0
    quarantine_events: int = 0
    quarantine_readmissions: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    trace_text: str = ""
    violations: List[str] = field(default_factory=list)

    #: The admission-ledger entries the report renders, in order.
    LEDGER_KEYS: ClassVar[Tuple[str, ...]] = ("checked", "admitted", "shed")

    @property
    def ok(self) -> bool:
        return not self.violations

    def body_lines(self) -> List[str]:
        raise NotImplementedError

    def body_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def harvest_faults(self, injector: FaultInjector) -> None:
        self.fault_counts = injector.trace.counts()
        self.trace_text = injector.trace.to_text()

    def harvest_bus(
        self, bus: MessageBus, controller: Optional[AdmissionController] = None
    ) -> None:
        stats = bus.stats
        self.bus_attempts = stats.calls
        self.bus_logical_calls = stats.logical_calls
        self.bus_retries = stats.retries
        self.bus_shed = stats.shed
        if controller is None:
            return
        ledger = controller.ledger
        self.ledger_checked = ledger.checked
        self.ledger_admitted = ledger.admitted
        self.ledger_shed = ledger.shed
        self.ledger_shed_by_class = dict(sorted(ledger.shed_by_class.items()))
        self.ledger_brownouts = ledger.brownouts
        self.injected_arrivals = ledger.injected_arrivals

    def harvest_quarantine(self, metrics: MetricsRegistry) -> None:
        self.quarantine_events = int(metrics.total("quarantine_events_total"))
        self.quarantine_readmissions = int(
            metrics.total("quarantine_readmissions_total")
        )

    def quarantine_dict(self, **extra: Any) -> Dict[str, Any]:
        return dict(events=self.quarantine_events,
                    readmissions=self.quarantine_readmissions, **extra)

    def quarantine_line(self, note: str = "") -> str:
        return "quarantine: events=%d readmissions=%d%s" % (
            self.quarantine_events, self.quarantine_readmissions, note
        )

    def head_line(self, title: str) -> str:
        return "%s: plan=%s seed=%d population=%d ticks=%d" % (
            title, self.plan, self.seed, self.population, self.ticks
        )

    def class_lines(self, critical_note: str = "",
                    shed_rate: bool = True) -> List[str]:
        deferrable_note = (
            " (shed_rate=%.3f)" % self.deferrable.shed_rate if shed_rate else ""
        )
        return [
            self.critical.line("critical:", critical_note),
            self.normal.line("normal:"),
            self.deferrable.line("deferrable:", deferrable_note),
        ]

    def classes_dict(self) -> Dict[str, Any]:
        return {
            "critical": self.critical.to_dict(),
            "normal": self.normal.to_dict(),
            "deferrable": self.deferrable.to_dict(),
        }

    def ledger_dict(self) -> Dict[str, Any]:
        ledger = {
            "checked": self.ledger_checked,
            "admitted": self.ledger_admitted,
            "shed": self.ledger_shed,
            "shed_by_class": dict(self.ledger_shed_by_class),
            "brownouts": self.ledger_brownouts,
            "injected_arrivals": self.injected_arrivals,
        }
        return {key: ledger[key] for key in self.LEDGER_KEYS}

    def ledger_line(self) -> str:
        return "admission ledger: " + " ".join(
            "%s=%d" % (key, value)
            for key, value in self.ledger_dict().items()
            if key != "shed_by_class"
        )

    def bus_dict(self) -> Dict[str, Any]:
        return {
            "attempts": self.bus_attempts,
            "logical_calls": self.bus_logical_calls,
            "retries": self.bus_retries,
            "shed": self.bus_shed,
        }

    def bus_line(self) -> str:
        return "bus: attempts=%d logical=%d retries=%d shed=%d" % (
            self.bus_attempts, self.bus_logical_calls, self.bus_retries,
            self.bus_shed,
        )

    def summary_lines(self) -> List[str]:
        fired = render_counts(self.fault_counts) or "none"
        return (
            self.body_lines()
            + ["faults fired: %s" % fired]
            + ["VIOLATION: %s" % violation for violation in self.violations]
            + ["result: %s" % ("OK" if self.ok else "FAILED")]
        )

    @property
    def report_text(self) -> str:
        return "".join(line + "\n" for line in self.summary_lines())

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "plan": self.plan,
            "seed": self.seed,
            "population": self.population,
            "ticks": self.ticks,
        }
        data.update(self.body_dict())
        data["fault_counts"] = dict(self.fault_counts)
        data["violations"] = list(self.violations)
        data["ok"] = self.ok
        return data


@dataclass
class CampusReport(ScenarioReport):
    """What the two campus scenarios (federate, rebalance) share."""

    buildings: List[str] = field(default_factory=list)
    residents_by_building: Dict[str, int] = field(default_factory=dict)
    stored_by_building: Dict[str, int] = field(default_factory=dict)
    # Shard crash + WAL recovery
    crashed: bool = False
    crash_building: str = ""
    crash_step: int = -1
    recovered: bool = False
    recovery: Optional[RecoveryReport] = None
    # Campus DSAR
    dsar_subject: str = ""
    dsar_buildings: List[str] = field(default_factory=list)
    dsar_observations: int = 0
    dsar_decisions: int = 0
    dsar_erased: int = 0
    dsar_withdrawn: int = 0
    dsar_compacted: List[str] = field(default_factory=list)
    dsar_unreachable: List[str] = field(default_factory=list)
    # End-of-run physical sweep (standalone recovery reader)
    swept_shards: int = 0
    resurrected: int = 0

    def crash_dict(self, **extra: Any) -> Dict[str, Any]:
        return dict(
            crashed=self.crashed,
            building=self.crash_building,
            step=self.crash_step,
            recovered=self.recovered,
            recovery=None if self.recovery is None else self.recovery.to_dict(),
            **extra
        )

    def dsar_dict(self, **extra: Any) -> Dict[str, Any]:
        return dict(
            subject=self.dsar_subject,
            buildings=list(self.dsar_buildings),
            observations=self.dsar_observations,
            decisions=self.dsar_decisions,
            erased=self.dsar_erased,
            withdrawn=self.dsar_withdrawn,
            compacted=list(self.dsar_compacted),
            unreachable=list(self.dsar_unreachable),
            **extra
        )

    def dsar_line(self, note: str = "") -> str:
        return "dsar: subject=%s%s buildings=[%s] observations=%d decisions=%d" % (
            self.dsar_subject or "none", note, ", ".join(self.dsar_buildings),
            self.dsar_observations, self.dsar_decisions,
        )

    def dsar_erase_line(self) -> str:
        return (
            "dsar erase: erased=%d withdrawn=%d compacted=[%s] "
            "unreachable=[%s]"
            % (self.dsar_erased, self.dsar_withdrawn,
               ", ".join(self.dsar_compacted),
               ", ".join(self.dsar_unreachable))
        )

    def sweep_dict(self, **extra: Any) -> Dict[str, Any]:
        return dict(shards=self.swept_shards, resurrected=self.resurrected,
                    **extra)


# -- named invariants --------------------------------------------------
def check_bus_accounting(report: ScenarioReport) -> None:
    """Every bus attempt is a logical call or one of its retries."""
    if report.bus_attempts != report.bus_logical_calls + report.bus_retries:
        report.violations.append(
            "bus accounting: attempts (%d) != logical (%d) + retries (%d)"
            % (report.bus_attempts, report.bus_logical_calls,
               report.bus_retries)
        )


def check_critical_never_shed(report: ScenarioReport) -> None:
    """Neither the ledger nor a caller saw a CRITICAL call shed."""
    critical_shed = report.ledger_shed_by_class.get(Priority.CRITICAL.value, 0)
    if critical_shed or report.critical.shed:
        report.violations.append(
            "CRITICAL calls were shed (ledger=%d observed=%d)"
            % (critical_shed, report.critical.shed)
        )


def check_deferrable_shed(report: ScenarioReport) -> None:
    """Under overload, DEFERRABLE traffic is shed."""
    if report.deferrable.shed == 0:
        report.violations.append("DEFERRABLE shed rate is 0 under overload")


def check_marked_audit(
    report: ScenarioReport, marked_audit: int, marked_responses: int
) -> None:
    """Every marked (degraded) response left a marked audit record."""
    if marked_audit < marked_responses:
        report.violations.append(
            "audit trail: %d marked records for %d marked responses"
            % (marked_audit, marked_responses)
        )


def check_dsar_erased(report: CampusReport) -> None:
    """The DSAR erasure removed something."""
    if report.dsar_erased == 0:
        report.violations.append("DSAR erasure removed no observations")


def check_nothing_resurrected(
    report: ScenarioReport, resurrected: int, message: str
) -> None:
    """Deletion assurance: ``resurrected`` (erased data found again after
    the erasure) is zero; ``message`` says where it was found."""
    if resurrected:
        report.violations.append(message)


# -- builders ----------------------------------------------------------
@contextlib.contextmanager
def storage_directory(directory: Optional[str], prefix: str) -> Iterator[str]:
    """Yield ``directory``, or a temporary one removed afterwards."""
    if directory is not None:
        yield directory
        return
    scratch = tempfile.mkdtemp(prefix=prefix)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def build_compact_building(
    building_id: str,
    owner_name: str,
    population: int,
    seed: int,
    rooms_per_floor: int = 6,
    **tippers_options: Any,
) -> Tuple[TIPPERS, List[Inhabitant]]:
    """The compact test building: two floors of ``rooms_per_floor``
    rooms, an access point and a motion sensor per room, the three
    catalog policies, and ``population`` seeded inhabitants as users."""
    spatial = build_simple_building(
        building_id, floors=2, rooms_per_floor=rooms_per_floor
    )
    tippers = build_compact_tippers(
        spatial, building_id, owner_name, **tippers_options
    )
    inhabitants = generate_inhabitants(spatial, population, seed=seed)
    for inhabitant in inhabitants:
        tippers.add_user(inhabitant.profile)
    return tippers, inhabitants


def open_compact_building(
    report: ScenarioReport,
    building_id: str,
    owner_name: str,
    metrics: MetricsRegistry,
    admission: Optional[AdmissionController] = None,
    **tippers_options: Any,
) -> Tuple[TIPPERS, List[Inhabitant], BuildingWorld, MessageBus,
           FaultInjector]:
    """The compact building on a bus of its own under ``report.plan``.

    Its TIPPERS and IRR are on the bus (the IRR advertising the
    building's policies and settings), its inhabitants move in a world,
    and the plan's injector is installed on the bus, the datastore and
    the sensors.
    """
    tippers, inhabitants = build_compact_building(
        building_id, owner_name, report.population, report.seed,
        metrics=metrics, **tippers_options
    )
    world = BuildingWorld(tippers.spatial, inhabitants, seed=report.seed)
    bus = MessageBus(metrics=metrics, tracer=Tracer(),
                     breakers=BreakerBoard(), admission=admission)
    bus.register(TIPPERS_ENDPOINT, tippers)
    registry = IoTResourceRegistry(REGISTRY_ENDPOINT, tippers.spatial)
    bus.register(REGISTRY_ENDPOINT, registry)
    registry.publish_resource(
        "%s-building-policies" % building_id,
        building_id,
        tippers.policy_manager.compile_policy_document(),
        settings=tippers.policy_manager.settings_space.to_document(),
    )
    injector = FaultInjector(build_plan(report.plan, report.seed))
    injector.install_bus(bus)
    injector.install_datastore(tippers.datastore)
    injector.install_sensor_manager(tippers.sensor_manager)
    return tippers, inhabitants, world, bus, injector


def build_campus(
    report: CampusReport,
    directory: str,
    segment_bytes: int,
    metrics: MetricsRegistry,
) -> Tuple[Campus, AdmissionController, Dict[str, List[Inhabitant]],
           Dict[str, BuildingWorld]]:
    """The campus of ``report.buildings`` behind one admission
    controller, its ring-partitioned residents, and one world per
    building."""
    # The campus spreads traffic across 2 endpoints per building, and
    # every queue drains one quantum per *global* admission check -- so
    # per-queue drain must be far below the single-building template's
    # 1.0 or no queue ever accumulates backlog.
    controller = AdmissionController(
        seed=report.seed,
        queue_capacity=8,
        drain_per_step=0.25,
        principal_capacity=16.0,
        principal_refill_per_step=1.0,
        metrics=metrics,
    )
    campus = Campus(
        report.buildings,
        seed=report.seed,
        storage_root=directory,
        segment_bytes=segment_bytes,
        metrics=metrics,
        admission=controller,
    )
    residents = partition_population(campus, report.population, report.seed)
    report.residents_by_building = {
        b: len(people) for b, people in residents.items()
    }
    worlds = {
        b: BuildingWorld(campus.shard(b).spatial, residents[b], seed=report.seed)
        for b in report.buildings
    }
    return campus, controller, residents, worlds


def partition_population(
    campus: Campus, population: int, seed: int
) -> Dict[str, List[Inhabitant]]:
    """Ring-partition a campus-global population into shard residents."""
    user_ids = ["campus-user-%04d" % index for index in range(1, population + 1)]
    by_building: Dict[str, List[str]] = {b: [] for b in campus.building_ids()}
    for user_id in user_ids:
        by_building[campus.router.home_building(user_id)].append(user_id)
    residents: Dict[str, List[Inhabitant]] = {}
    for building_id in sorted(by_building):
        ids = by_building[building_id]
        shard = campus.shard(building_id)
        residents[building_id] = generate_inhabitants(
            shard.spatial,
            len(ids),
            seed=seed,
            building_id=building_id,
            user_ids=ids,
        )
        for inhabitant in residents[building_id]:
            campus.add_resident(building_id, inhabitant.profile)
    return residents


def home_assistants(
    campus: Campus, metrics: MetricsRegistry, retry_policy: RetryPolicy
) -> Dict[str, IoTAssistant]:
    """An IoTA at its home shard for every campus user who has one."""
    assistants: Dict[str, IoTAssistant] = {}
    for user_id in sorted(campus.home_of):
        if not campus.profile_of(user_id).has_iota:
            continue
        shard = campus.shard(campus.home_of[user_id])
        assistants[user_id] = IoTAssistant(
            user_id,
            campus.bus,
            tippers_endpoint=shard.endpoint,
            registry_endpoints=[shard.registry_endpoint],
            metrics=metrics,
            retry_policy=retry_policy,
        )
    return assistants


def harvest_shards(report: CampusReport, campus: Campus, prefix: str) -> int:
    """Record every shard's stored count; return how many of the shards'
    audit records carry a ``prefix``-marked note."""
    marked = 0
    for shard in campus.shards():
        tippers = shard.tippers
        report.stored_by_building[shard.building_id] = tippers.datastore.count()
        marked += sum(
            1 for record in tippers.audit if has_marker(record.reasons, prefix)
        )
    return marked


def run_campus_dsar(
    campus: Campus, report: CampusReport, subject: str, now: float
) -> float:
    """The campus DSAR cycle for ``subject``: an access report fanned out
    at ``now``, then an erasure with per-shard compaction half a second
    later.  Returns the erasure time."""
    erase_now = now + 0.5
    report.dsar_subject = subject
    access = campus_access_report(campus, subject, now)
    report.dsar_buildings = list(access.buildings)
    report.dsar_observations = access.observations_total
    report.dsar_decisions = access.decisions_total
    report.dsar_unreachable = list(access.unreachable)
    receipt = campus_erase_subject(
        campus, subject, erase_now,
        withdraw_preferences=True, compact_storage=True,
    )
    report.dsar_erased = receipt.erased_observations
    report.dsar_withdrawn = receipt.withdrawn_preferences
    report.dsar_compacted = list(receipt.compacted_buildings)
    for building in receipt.unreachable:
        if building not in report.dsar_unreachable:
            report.dsar_unreachable.append(building)
    return erase_now


def sweep_erased_subject(
    report: CampusReport, storage_root: str, erase_now: float, end_now: float
) -> List[RecoveredState]:
    """The physical-absence sweep: re-open every shard directory under
    ``storage_root`` -- decommissioned buildings' included -- with the
    standalone recovery reader, and count the DSAR subject's observations
    from before the erasure into ``report.resurrected``.

    Returns the recovered states; sweeps nothing when no DSAR ran.
    """
    if not report.dsar_subject or erase_now < 0:
        return []
    states = []
    for name in sorted(os.listdir(storage_root)):
        shard_dir = os.path.join(storage_root, name)
        if not os.path.isdir(shard_dir):
            continue
        state = recover(shard_dir, now=end_now)
        report.swept_shards += 1
        report.resurrected += sum(
            1
            for obs in state.datastore.query(subject_id=report.dsar_subject)
            if obs.timestamp <= erase_now
        )
        states.append(state)
    return states
