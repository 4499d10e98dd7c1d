"""The federation scenario: a sharded campus under storm conditions.

A campus of independently-WAL'd TIPPERS shards (one per building, see
:mod:`repro.federation`) runs capture ticks and a mixed-priority bus
workload while inhabitants roam between buildings and the
``campus-storm`` fault plan injects overload bursts, a stalled access
point, and a mid-append crash that takes one shard down hard:

- **Roaming**: every boundary crossing the world emits triggers an IoTA
  handoff -- the assistant re-discovers the visited building's IRR,
  registers its user as a roaming principal (CRITICAL; never shed), and
  re-pushes the preferences the visited shard has not yet acknowledged.
  Every enforcement decision a visited shard makes about a roamer must
  carry a ``roaming:<home>`` marker in both the response and the audit
  record.
- **Crash + recovery**: the crashed shard goes dark (routed calls fail,
  nothing queues), then recovers from its own WAL -- the user directory
  re-seeded from campus metadata, observations/audit/preferences
  replayed -- and rejoins the bus; roamers present in the building are
  handed off again.
- **Campus DSAR**: mid-run, one well-travelled subject exercises the
  cross-shard data-subject pipeline -- an access report fanned out to
  every building that ever observed them, then an erasure with
  per-shard WAL-durable compaction.  At scenario end every shard's
  directory is re-opened with the *standalone* recovery reader and
  swept: no observation of the erased subject from before the erasure
  may exist anywhere on the campus.

The report carries only counts and booleans, so two runs with the same
seed render byte-identical text (pinned by golden reports), and
:attr:`FederateReport.violations` machine-checks the acceptance
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.policy import catalog
from repro.errors import NetworkError, SimulatedCrash
from repro.faults import FaultInjector, build_plan
from repro.federation import Campus
from repro.net.bus import RpcError
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.harness import (
    CampusReport,
    ClassOutcome,
    accounted_call,
    build_campus,
    check_bus_accounting,
    check_critical_never_shed,
    check_deferrable_shed,
    check_dsar_erased,
    check_marked_audit,
    check_nothing_resurrected,
    harvest_shards,
    has_marker,
    home_assistants,
    locate_payload,
    render_counts,
    run_campus_dsar,
    storage_directory,
    sweep_erased_subject,
)
from repro.simulation.inhabitants import Inhabitant
from repro.simulation.mobility import CampusWorld
from repro.users.profile import profile_to_dict

DEFAULT_BUILDINGS = ("bldg-a", "bldg-b", "bldg-c", "bldg-d")

#: The marker prefix every visited-shard decision about a roamer
#: carries (see RequestManager._roaming_notes).
ROAMING_MARKER_PREFIX = "roaming:"


@dataclass
class FederateReport(CampusReport):
    """Everything one campus run produced, rendered deterministically."""

    roamers: int = 0
    # Roaming handoffs
    handoffs: int = 0
    returns: int = 0
    reentries: int = 0
    handoff_failures: int = 0
    preferences_repushed: int = 0
    preferences_pending: int = 0
    critical_dark: int = 0
    # Roaming markers
    visited_shard_responses: int = 0
    roaming_marked_responses: int = 0
    roaming_marked_audit: int = 0
    # Crash + recovery
    crash_tick: int = -1
    rehandoffs: int = 0

    LEDGER_KEYS = ("checked", "admitted", "shed", "shed_by_class", "brownouts")

    def body_dict(self) -> Dict[str, Any]:
        return {
            "buildings": list(self.buildings),
            "residents_by_building": dict(self.residents_by_building),
            "roamers": self.roamers,
            "roaming": {
                "handoffs": self.handoffs,
                "returns": self.returns,
                "reentries": self.reentries,
                "failures": self.handoff_failures,
                "preferences_repushed": self.preferences_repushed,
                "preferences_pending": self.preferences_pending,
                "visited_shard_responses": self.visited_shard_responses,
                "marked_responses": self.roaming_marked_responses,
                "marked_audit_records": self.roaming_marked_audit,
            },
            "classes": self.classes_dict(),
            "critical_dark": self.critical_dark,
            "crash": self.crash_dict(
                tick=self.crash_tick, rehandoffs=self.rehandoffs
            ),
            "dsar": self.dsar_dict(),
            "sweep": self.sweep_dict(),
            "ledger": self.ledger_dict(),
            "quarantine": self.quarantine_dict(),
            "stored_by_building": dict(self.stored_by_building),
            "bus": self.bus_dict(),
        }

    def body_lines(self) -> List[str]:
        lines = [
            self.head_line("federate run")
            + " buildings=%d" % len(self.buildings),
            "residents: " + render_counts(self.residents_by_building),
            "roaming: roamers=%d handoffs=%d returns=%d reentries=%d "
            "failures=%d" % (self.roamers, self.handoffs, self.returns,
                             self.reentries, self.handoff_failures),
            "preferences: repushed=%d pending=%d"
            % (self.preferences_repushed, self.preferences_pending),
            "markers: visited_responses=%d marked_responses=%d marked_audit=%d"
            % (self.visited_shard_responses, self.roaming_marked_responses,
               self.roaming_marked_audit),
            *self.class_lines(critical_note=" dark=%d" % self.critical_dark),
            "crash: crashed=%s building=%s tick=%d recovered=%s rehandoffs=%d"
            % (self.crashed, self.crash_building or "none", self.crash_tick,
               self.recovered, self.rehandoffs),
        ]
        if self.recovery is not None:
            lines.extend(self.recovery.lines())
        lines.extend([
            self.dsar_line(),
            self.dsar_erase_line(),
            "sweep: shards=%d resurrected=%d"
            % (self.swept_shards, self.resurrected),
            self.ledger_line(),
            self.quarantine_line(),
            "stored: " + render_counts(self.stored_by_building),
            self.bus_line(),
        ])
        return lines


@dataclass
class _Run:
    """Mutable state one federate run threads through its helpers."""

    campus: Campus
    report: FederateReport
    retry_policy: RetryPolicy
    injector: FaultInjector
    #: The roamers who submit a preference before they roam.
    pref_submitters: Set[str]
    current_tick: int = -1
    erase_now: float = -1.0

    def call(
        self,
        outcome: ClassOutcome,
        building_id: str,
        method: str,
        payload: Dict[str, Any],
        principal: str,
        registry: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """One accounted workload call routed to ``building_id``.

        Returns None when the call was shed, failed, or took the target
        shard down (a crash mid-call marks the shard dark and counts as
        a failure -- the caller got no answer).
        """
        shard = self.campus.shard(building_id)
        target = shard.registry_endpoint if registry else shard.endpoint
        dark = shard.down
        failed = outcome.failed
        response = None
        try:
            response = accounted_call(
                self.campus.bus, outcome, target, method, payload,
                principal, self.retry_policy,
            )
        except SimulatedCrash:
            self._record_crash(building_id)
            outcome.failed += 1
            # The crash call itself opens the dark window.
            dark = True
        if dark and outcome.failed > failed and outcome is self.report.critical:
            self.report.critical_dark += 1
        return response

    def _record_crash(self, building_id: str) -> None:
        if not self.report.crashed:
            self.report.crashed = True
            self.report.crash_building = building_id
            self.report.crash_tick = self.current_tick
            self.report.crash_step = self.injector.step - 1
        self.campus.mark_down(building_id)


def run_federate_scenario(
    plan_name: str = "campus-storm",
    seed: int = 17,
    population: int = 12,
    ticks: int = 16,
    buildings: Sequence[str] = DEFAULT_BUILDINGS,
    directory: Optional[str] = None,
    segment_bytes: int = 8 * 1024,
    metrics: Optional[MetricsRegistry] = None,
) -> FederateReport:
    """Run the sharded-campus scenario under ``plan_name`` and report.

    When ``directory`` is omitted a temporary storage root is created
    and removed afterwards; pass one to keep each shard's WAL directory
    for inspection.  ``metrics`` (optional) receives the run's
    instrumentation -- the bench harness reads decision latency and WAL
    bytes from it.
    """
    report = FederateReport(
        plan=plan_name,
        seed=seed,
        population=population,
        ticks=ticks,
        buildings=sorted(buildings),
    )
    with storage_directory(directory, "repro-federate-") as root:
        _run(report, root, segment_bytes,
             metrics if metrics is not None else MetricsRegistry())
    return report


def _run(
    report: FederateReport,
    directory: str,
    segment_bytes: int,
    metrics: MetricsRegistry,
) -> None:
    seed, ticks, buildings = report.seed, report.ticks, report.buildings
    campus, controller, residents, worlds = build_campus(
        report, directory, segment_bytes, metrics
    )
    inhabitants: Dict[str, Inhabitant] = {
        person.user_id: person
        for people in residents.values()
        for person in people
    }
    retry_policy = RetryPolicy(seed=seed)
    assistants = home_assistants(campus, metrics, retry_policy)
    roamer_ids = sorted(assistants)
    report.roamers = len(roamer_ids)
    world = CampusWorld(
        worlds,
        home_of=dict(campus.home_of),
        inhabitants=inhabitants,
        roamers=roamer_ids,
        seed=seed,
    )

    crash_building = buildings[0]
    stall_building = buildings[1 % len(buildings)]
    plan = build_plan(report.plan, seed)
    injector = FaultInjector(plan)
    injector.install_bus(campus.bus)
    injector.install_admission(controller)
    injector.install_storage_engine(campus.shard(crash_building).storage)
    injector.install_sensor_manager(
        campus.shard(stall_building).tippers.sensor_manager
    )
    run = _Run(campus, report, retry_policy, injector, set(roamer_ids[:3]))

    noon = 12 * 3600.0
    try:
        _run_ticks(run, world, assistants, noon, ticks)
    finally:
        injector.uninstall()
        report.harvest_faults(injector)
        campus.close()
    end_now = noon + ticks * 60.0

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    report.roaming_marked_audit = harvest_shards(
        report, campus, ROAMING_MARKER_PREFIX
    )
    report.harvest_quarantine(metrics)
    report.harvest_bus(campus.bus, controller)
    sweep_erased_subject(report, directory, run.erase_now, end_now)

    _check_invariants(report)


def _run_ticks(
    run: "_Run",
    world: CampusWorld,
    assistants: Dict[str, Any],
    noon: float,
    ticks: int,
) -> None:
    campus = run.campus
    report = run.report
    buildings = list(campus.building_ids())
    dsar_tick = max(1, (3 * ticks) // 4)
    for tick in range(ticks):
        run.current_tick = tick
        now = noon + tick * 60.0

        # Recover the dark shard after one full tick of darkness, then
        # hand off every roamer still inside the building again.
        if (report.crashed and not report.recovered
                and tick >= report.crash_tick + 2):
            report.recovery = campus.recover_shard(report.crash_building, now)
            report.recovered = True
            for user_id in sorted(assistants):
                if world.building_of(user_id) != report.crash_building:
                    continue
                if campus.home_of[user_id] == report.crash_building:
                    continue
                if _handoff(run, assistants[user_id], user_id,
                            report.crash_building, now) is not None:
                    report.rehandoffs += 1

        events = world.step(now)

        # Pre-roam preference submissions: a few assistants record an
        # explicit no-location preference at their home shard, so later
        # handoffs have something to re-push.
        if tick == 0:
            for user_id in sorted(run.pref_submitters):
                try:
                    assistants[user_id].submit_preference(
                        catalog.preference_2_no_location(user_id)
                    )
                except (RpcError, NetworkError):
                    pass

        # Boundary crossings -> IoTA handoffs.
        for event in events:
            if event.user_id not in assistants:
                continue
            result = _handoff(run, assistants[event.user_id], event.user_id,
                              event.to_building, now)
            if result is None:
                continue
            if event.kind == "roam":
                report.handoffs += 1
            else:
                report.returns += 1
            if result.re_entry:
                report.reentries += 1
            report.preferences_repushed += result.preferences_pushed
            report.preferences_pending += result.preferences_pending

        # Capture tick on every live shard; a mid-append crash takes
        # the shard down dark.
        for building_id in buildings:
            shard = campus.shard(building_id)
            if shard.down:
                continue
            try:
                shard.tippers.tick(now, world.world(building_id))
            except SimulatedCrash:
                run._record_crash(building_id)

        # The presence ledger: which live shards observed whom.
        for user_id in sorted(campus.home_of):
            building_id = world.building_of(user_id)
            if campus.shard(building_id).down:
                continue
            if world.world(building_id).location_of(user_id) is not None:
                campus.record_presence(user_id, building_id)

        # CRITICAL: the enforcement pipeline keeps fetching policy.
        for building_id in buildings:
            run.call(
                report.critical, building_id, "get_policy_document", {},
                "svc-policy-sync",
            )

        # DEFERRABLE: discovery sweeps against each visited registry.
        for user_id in sorted(assistants):
            building_id = world.building_of(user_id)
            run.call(
                report.deferrable, building_id, "discover",
                {"space_id": building_id},
                "iota-%s" % user_id, registry=True,
            )

        # NORMAL: locate each inhabitant at the building they are in;
        # a visited shard's answer must carry the roaming marker.
        for user_id in sorted(campus.home_of):
            building_id = world.building_of(user_id)
            visited = building_id != campus.home_of[user_id]
            dark = campus.shard(building_id).down
            response = run.call(
                report.normal, building_id, "locate_user",
                locate_payload(user_id, now), "svc-occupancy",
            )
            if response is None or dark:
                continue
            if visited:
                report.visited_shard_responses += 1
                if has_marker(response["reasons"], ROAMING_MARKER_PREFIX):
                    report.roaming_marked_responses += 1

        # The campus DSAR: report, then erase with per-shard compaction.
        if tick == dsar_tick:
            _run_dsar(run, now)


def _handoff(run: "_Run", assistant: Any, user_id: str,
             building_id: str, now: float) -> Optional[Any]:
    """One IoTA handoff to ``building_id``; None when it failed."""
    campus = run.campus
    shard = campus.shard(building_id)
    try:
        return assistant.roam_to(
            shard.endpoint,
            shard.registry_endpoint,
            profile_to_dict(campus.profile_of(user_id)),
            campus.home_of[user_id],
            building_id,
            now,
        )
    except SimulatedCrash:
        run._record_crash(building_id)
        run.report.handoff_failures += 1
        return None
    except (RpcError, NetworkError):
        run.report.handoff_failures += 1
        return None


def _run_dsar(run: "_Run", now: float) -> None:
    """The campus-wide DSAR cycle for one well-travelled subject."""
    campus = run.campus
    report = run.report
    # The most interesting subject: someone whose observations span at
    # least two shards.  No-location preference holders are skipped --
    # their capture was suppressed, so an erasure would be a no-op.
    candidates = [
        user_id
        for user_id in sorted(campus.home_of)
        if user_id not in run.pref_submitters
    ]
    subject = ""
    for user_id in candidates:
        if len(campus.buildings_observing(user_id)) >= 2:
            subject = user_id
            break
    if not subject:
        subject = candidates[0]
    run.erase_now = run_campus_dsar(campus, report, subject, now)


def _check_invariants(report: FederateReport) -> None:
    """The acceptance invariants, machine-checked into ``violations``."""
    check_bus_accounting(report)
    check_critical_never_shed(report)
    if report.critical.completed != (
        report.critical.attempted - report.critical_dark
    ):
        report.violations.append(
            "CRITICAL calls failed outside the dark-shard window: "
            "completed=%d attempted=%d dark=%d"
            % (report.critical.completed, report.critical.attempted,
               report.critical_dark)
        )
    check_deferrable_shed(report)
    if report.handoffs == 0:
        report.violations.append("no roaming handoffs occurred")
    if report.visited_shard_responses == 0:
        report.violations.append("no visited-shard decisions were served")
    if report.roaming_marked_responses != report.visited_shard_responses:
        report.violations.append(
            "roaming markers: %d of %d visited-shard responses marked"
            % (report.roaming_marked_responses, report.visited_shard_responses)
        )
    check_marked_audit(
        report, report.roaming_marked_audit, report.roaming_marked_responses
    )
    if not report.crashed:
        report.violations.append("the storm never crashed a shard")
    if report.crashed and not report.recovered:
        report.violations.append(
            "shard %s never recovered" % report.crash_building
        )
    if len(report.dsar_buildings) < 2:
        report.violations.append(
            "DSAR fan-out reached %d building(s); expected >= 2"
            % len(report.dsar_buildings)
        )
    check_dsar_erased(report)
    if report.dsar_compacted != report.dsar_buildings:
        report.violations.append(
            "DSAR compaction: compacted=[%s] but fan-out=[%s]"
            % (", ".join(report.dsar_compacted),
               ", ".join(report.dsar_buildings))
        )
    check_nothing_resurrected(
        report, report.resurrected,
        "physical sweep found %d observation(s) of the erased subject"
        % report.resurrected,
    )
