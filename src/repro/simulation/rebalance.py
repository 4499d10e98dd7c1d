"""The rebalance scenario: elastic campus membership under faults.

A three-building campus runs its usual workload (capture ticks,
CRITICAL policy fetches, NORMAL locates routed through the federation
router, DEFERRABLE discovery sweeps), then the topology changes twice:

1. **Join**: a fourth building comes up and joins the hash ring.  The
   ring hands back a migration delta and a
   :class:`~repro.federation.rebalance.RebalanceCoordinator` migrates
   each displaced user with the two-phase, WAL-journaled protocol --
   under the ``ring-change`` fault plan, which partitions one
   migration's finalize acknowledgement away (the user stays mid-flight,
   served fail-closed through forwarding) and crashes the destination
   shard right after another migration's import committed (recovery must
   take the journal-proved finalize-only path).
2. **Drain**: the oldest building leaves the ring, its users migrate
   out cleanly, and the emptied shard is decommissioned for good --
   endpoints off the bus with breaker eviction, unknown-building calls
   afterwards rejected and counted.

While migrations are in flight the scenario keeps probing: every
forwarded decision must carry a ``migrating:<from>:<to>`` marker in
both the response and the audit record (counted for exact equality:
zero lost, zero duplicated), every probe at a dark destination must
fail rather than answer (fail-closed), and a campus DSAR lands on a
*mid-migration* subject -- after which no shard, journal entry, or
compacted segment may ever resurrect their observations.

The report carries only counts and booleans, so two same-seed runs
render byte-identical text (pinned by golden reports), and
:attr:`RebalanceReport.violations` machine-checks the acceptance
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.policy import catalog
from repro.errors import (
    AdmissionShedError,
    FederationError,
    NetworkError,
    SimulatedCrash,
)
from repro.faults import FaultInjector, build_plan
from repro.federation import Campus, RebalanceCoordinator
from repro.net.bus import RpcError
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.harness import (
    CampusReport,
    accounted,
    accounted_call,
    build_campus,
    check_bus_accounting,
    check_dsar_erased,
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
from repro.simulation.mobility import BuildingWorld

DEFAULT_BUILDINGS = ("bldg-a", "bldg-b", "bldg-c")
DEFAULT_NEW_BUILDING = "bldg-d"

#: The marker prefix every forwarded mid-migration decision carries.
MIGRATING_MARKER_PREFIX = "migrating:"


@dataclass
class RebalanceReport(CampusReport):
    """Everything one rebalance run produced, rendered deterministically."""

    new_building: str = ""
    drained_building: str = ""
    final_residents_by_building: Dict[str, int] = field(default_factory=dict)
    ring_version: int = 1
    # Migration waves
    wave1_planned: int = 0
    wave2_planned: int = 0
    migration_stats: Dict[str, int] = field(default_factory=dict)
    pending_remaining: int = 0
    observations_moved: int = 0
    preferences_moved: int = 0
    # Journal-guided resumption after the crash
    journal_entries: int = 0
    # Mid-migration forwarding
    forwarded_responses: int = 0
    marked_responses: int = 0
    unmarked_responses: int = 0
    marked_audit: int = 0
    # Fail-closed probes at the dark destination
    failclosed_probes: int = 0
    failclosed_denied: int = 0
    failclosed_allows: int = 0
    # Mid-migration DSAR
    dsar_mid_flight: bool = False
    # Decommissioning
    decommissioned: List[str] = field(default_factory=list)
    unknown_probes: int = 0
    unknown_rejections: int = 0
    breaker_entries_left: int = 0
    # Assistant re-homing
    rehomed_assistants: int = 0
    rehome_pushed: int = 0
    rehome_pending: int = 0
    # Journaled migration snapshots the physical sweep found
    journal_snapshots_with_subject: int = 0

    def body_dict(self) -> Dict[str, Any]:
        return {
            "buildings": list(self.buildings),
            "new_building": self.new_building,
            "drained_building": self.drained_building,
            "residents_by_building": dict(self.residents_by_building),
            "final_residents_by_building": dict(
                self.final_residents_by_building
            ),
            "ring_version": self.ring_version,
            "waves": {
                "wave1_planned": self.wave1_planned,
                "wave2_planned": self.wave2_planned,
                "stats": dict(self.migration_stats),
                "pending_remaining": self.pending_remaining,
                "observations_moved": self.observations_moved,
                "preferences_moved": self.preferences_moved,
            },
            "crash": self.crash_dict(journal_entries=self.journal_entries),
            "forwarding": {
                "responses": self.forwarded_responses,
                "marked": self.marked_responses,
                "unmarked": self.unmarked_responses,
                "marked_audit_records": self.marked_audit,
            },
            "fail_closed": {
                "probes": self.failclosed_probes,
                "denied": self.failclosed_denied,
                "allows": self.failclosed_allows,
            },
            "dsar": self.dsar_dict(mid_flight=self.dsar_mid_flight),
            "decommission": {
                "decommissioned": list(self.decommissioned),
                "unknown_probes": self.unknown_probes,
                "unknown_rejections": self.unknown_rejections,
                "breaker_entries_left": self.breaker_entries_left,
            },
            "rehome": {
                "assistants": self.rehomed_assistants,
                "pushed": self.rehome_pushed,
                "pending": self.rehome_pending,
            },
            "classes": self.classes_dict(),
            "ledger": self.ledger_dict(),
            "stored_by_building": dict(self.stored_by_building),
            "bus": self.bus_dict(),
            "sweep": self.sweep_dict(
                journal_snapshots_with_subject=(
                    self.journal_snapshots_with_subject
                )
            ),
        }

    def body_lines(self) -> List[str]:
        lines = [
            self.head_line("rebalance run")
            + " buildings=%d" % len(self.buildings),
            "topology: joined=%s drained=%s ring_version=%d"
            % (self.new_building, self.drained_building, self.ring_version),
            "residents before: " + render_counts(self.residents_by_building),
            "residents after:  "
            + render_counts(self.final_residents_by_building),
            "waves: wave1=%d wave2=%d pending_left=%d"
            % (self.wave1_planned, self.wave2_planned,
               self.pending_remaining),
            "migrations: " + render_counts(self.migration_stats),
            "moved: observations=%d preferences=%d"
            % (self.observations_moved, self.preferences_moved),
            "crash: crashed=%s building=%s step=%d recovered=%s "
            "journal_entries=%d"
            % (self.crashed, self.crash_building or "none", self.crash_step,
               self.recovered, self.journal_entries),
        ]
        if self.recovery is not None:
            lines.extend(self.recovery.lines())
        lines.extend([
            "forwarding: responses=%d marked=%d unmarked=%d marked_audit=%d"
            % (self.forwarded_responses, self.marked_responses,
               self.unmarked_responses, self.marked_audit),
            "fail-closed: probes=%d denied=%d allows=%d"
            % (self.failclosed_probes, self.failclosed_denied,
               self.failclosed_allows),
            self.dsar_line(" mid_flight=%s" % self.dsar_mid_flight),
            self.dsar_erase_line(),
            "decommission: gone=[%s] unknown_probes=%d rejections=%d "
            "breaker_entries_left=%d"
            % (", ".join(self.decommissioned), self.unknown_probes,
               self.unknown_rejections, self.breaker_entries_left),
            "rehome: assistants=%d pushed=%d pending=%d"
            % (self.rehomed_assistants, self.rehome_pushed,
               self.rehome_pending),
            *self.class_lines(shed_rate=False),
            self.ledger_line(),
            "stored: " + render_counts(self.stored_by_building),
            self.bus_line(),
            "sweep: shards=%d resurrected=%d journal_snapshots=%d"
            % (self.swept_shards, self.resurrected,
               self.journal_snapshots_with_subject),
        ])
        return lines


@dataclass
class _Run:
    """Mutable state one rebalance run threads through its helpers."""

    campus: Campus
    report: RebalanceReport
    coordinator: RebalanceCoordinator
    retry_policy: RetryPolicy
    injector: FaultInjector
    worlds: Dict[str, BuildingWorld]
    #: user -> the building they are *physically* in (people do not
    #: move in this scenario; their data does).
    building_of: Dict[str, str]
    #: user -> IoTAssistant
    assistants: Dict[str, Any]
    now: float
    erase_now: float = -1.0

    def _locate_home(self, user_id: str) -> Dict[str, Any]:
        return self.campus.router.call_home(
            user_id, "locate_user", locate_payload(user_id, self.now),
            principal="svc-occupancy",
        )

    def locate(self, user_id: str) -> Optional[Dict[str, Any]]:
        """One NORMAL locate routed through the federation router.

        A mid-migration subject's call is forwarded to the new home with
        the ``migrating:`` marker; the response's reasons are checked so
        an unmarked forwarded decision is caught, not silently passed.
        """
        report = self.report
        migration = self.campus.router.migration_of(user_id)
        response = accounted(
            report.normal, lambda: self._locate_home(user_id),
            (NetworkError, FederationError),
        )
        if response is not None and migration is not None:
            report.forwarded_responses += 1
            if has_marker(response["reasons"], MIGRATING_MARKER_PREFIX):
                report.marked_responses += 1
            else:
                report.unmarked_responses += 1
        return response

    def tick(self) -> None:
        """One deterministic workload tick; advances simulated time."""
        campus = self.campus
        report = self.report
        now = self.now
        live = {shard.building_id: shard for shard in campus.shards()}
        for building_id in sorted(self.worlds):
            self.worlds[building_id].step(now)
        for building_id in sorted(self.worlds):
            shard = live.get(building_id)
            if shard is None or shard.down:
                continue
            shard.tippers.tick(now, self.worlds[building_id])
        for user_id in sorted(self.building_of):
            building_id = self.building_of[user_id]
            shard = live.get(building_id)
            if shard is None or shard.down:
                continue
            if self.worlds[building_id].location_of(user_id) is not None:
                campus.record_presence(user_id, building_id)
        for building_id in sorted(live):
            if live[building_id].down:
                continue
            accounted_call(
                campus.bus, report.critical, live[building_id].endpoint,
                "get_policy_document", {}, "svc-policy-sync",
                self.retry_policy,
            )
        for user_id in sorted(campus.home_of):
            self.locate(user_id)
        for user_id in sorted(self.assistants):
            home = campus.home_of[user_id]
            shard = live.get(home)
            if shard is None:
                continue
            accounted_call(
                campus.bus, report.deferrable, shard.registry_endpoint,
                "discover", {"space_id": home}, "iota-%s" % user_id,
                self.retry_policy,
            )
        self.now += 60.0

    def dark_probes(self) -> None:
        """Probe every mid-migration principal while the destination is
        dark: any answer at all is a fail-open leak."""
        report = self.report
        for user_id in self.campus.router.migrating_principals():
            report.failclosed_probes += 1
            try:
                self._locate_home(user_id)
            except (RpcError, NetworkError, AdmissionShedError):
                report.failclosed_denied += 1
                continue
            report.failclosed_allows += 1


def run_rebalance_scenario(
    plan_name: str = "ring-change",
    seed: int = 23,
    population: int = 24,
    ticks: int = 12,
    buildings: Sequence[str] = DEFAULT_BUILDINGS,
    new_building: str = DEFAULT_NEW_BUILDING,
    directory: Optional[str] = None,
    segment_bytes: int = 8 * 1024,
    metrics: Optional[MetricsRegistry] = None,
) -> RebalanceReport:
    """Run the elastic-membership scenario under ``plan_name``.

    When ``directory`` is omitted a temporary storage root is created
    and removed afterwards; pass one to keep each shard's WAL directory
    for inspection.  ``metrics`` (optional) receives the run's
    instrumentation -- the bench harness reads decision latency and WAL
    bytes from it.
    """
    buildings = sorted(buildings)
    report = RebalanceReport(
        plan=plan_name,
        seed=seed,
        population=population,
        ticks=ticks,
        buildings=list(buildings),
        new_building=new_building,
        drained_building=buildings[0],
    )
    with storage_directory(directory, "repro-rebalance-") as root:
        _run(report, root, segment_bytes,
             metrics if metrics is not None else MetricsRegistry())
    return report


def _run(
    report: RebalanceReport,
    directory: str,
    segment_bytes: int,
    metrics: MetricsRegistry,
) -> None:
    campus, controller, residents, worlds = build_campus(
        report, directory, segment_bytes, metrics
    )
    building_of = {
        person.user_id: b
        for b, people in residents.items()
        for person in people
    }
    retry_policy = RetryPolicy(seed=report.seed)
    assistants = home_assistants(campus, metrics, retry_policy)
    coordinator = RebalanceCoordinator(campus, retry_policy=retry_policy)
    plan = build_plan(report.plan, report.seed)
    # Only the migration plane is installed, so the injector's logical
    # steps count migration-step consults exactly -- that is what makes
    # the ring-change plan's windows scale-independent.
    injector = FaultInjector(plan)
    injector.install_rebalancer(coordinator)

    run = _Run(campus, report, coordinator, retry_policy, injector,
               worlds, building_of, assistants, now=12 * 3600.0)

    try:
        _phases(run, report.ticks, report.new_building)
    finally:
        injector.uninstall()
        report.harvest_faults(injector)
        campus.close()

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    report.ring_version = campus.router.ring_version
    report.migration_stats = dict(coordinator.stats)
    report.pending_remaining = len(coordinator.pending())
    report.final_residents_by_building = {
        shard.building_id: len(shard.residents)
        for shard in campus.shards()
    }
    report.marked_audit = harvest_shards(
        report, campus, MIGRATING_MARKER_PREFIX
    )
    if campus.bus.breakers is not None:
        states = campus.bus.breakers.states()
        report.breaker_entries_left = sum(
            1
            for target in states
            if target.endswith("-" + report.drained_building)
            or target == "tippers-%s" % report.drained_building
            or target == "irr-%s" % report.drained_building
        )
    report.unknown_rejections = int(
        metrics.total("federation_unknown_building_total")
    )
    report.harvest_bus(campus.bus, controller)

    # No journaled migration snapshot may still hold the erased subject.
    for state in sweep_erased_subject(
        report, directory, run.erase_now, run.now
    ):
        for entry in state.migrations.values():
            snapshot = entry.get("snapshot")
            if (
                entry.get("user_id") == report.dsar_subject
                and isinstance(snapshot, dict)
                and snapshot.get("observations")
            ):
                report.journal_snapshots_with_subject += 1

    _check_invariants(report)


def _phases(run: _Run, ticks: int, new_building: str) -> None:
    """The scripted phases: warm-up, join wave, DSAR, drain, final."""
    campus = run.campus
    report = run.report
    warm_ticks = max(2, ticks // 3)
    final_ticks = max(2, ticks - warm_ticks - 4)

    # Phase 0: explicit preferences for migrations to carry.  Office
    # holders hide their office occupancy after-hours -- active policy
    # state that must survive the move byte-for-byte, without
    # suppressing the noon-time capture this scenario runs on.
    for user_id in sorted(run.assistants):
        profile = campus.profile_of(user_id)
        if profile.office_id is None:
            continue
        try:
            run.assistants[user_id].submit_preference(
                catalog.preference_1_office_after_hours(
                    user_id, profile.office_id
                )
            )
        except (RpcError, NetworkError):
            pass

    # Phase 1: warm-up.
    for _ in range(warm_ticks):
        run.tick()

    # Phase 2: the join wave, under partition and crash.
    delta = campus.add_building(new_building)
    migrations = run.coordinator.plan_for_delta(delta)
    report.wave1_planned = len(migrations)
    _drive_wave(run, migrations)

    # Phase 3: one mid-campus interlude tick on the enlarged ring.
    run.tick()

    # Phase 4: the drain wave (fault windows are long closed), then
    # decommissioning and the counted unknown-building rejection.
    drained = report.drained_building
    delta2 = campus.drain_building(drained)
    migrations2 = run.coordinator.plan_for_delta(delta2)
    report.wave2_planned = len(migrations2)
    _drive_wave(run, migrations2)
    campus.decommission_building(drained)
    report.decommissioned = list(campus.decommissioned)
    for _ in range(2):
        report.unknown_probes += 1
        try:
            campus.router.call_building(
                drained, "get_policy_document", {}, principal="svc-policy-sync"
            )
        except FederationError:
            pass

    # Phase 5: re-home the assistants of every migrated user.
    for user_id in sorted(run.assistants):
        shard = campus.shard(campus.home_of[user_id])
        assistant = run.assistants[user_id]
        if assistant.tippers_endpoint == shard.endpoint:
            continue
        try:
            pushed = assistant.rehome(
                shard.endpoint, shard.registry_endpoint
            )
        except (RpcError, NetworkError):
            continue
        report.rehomed_assistants += 1
        report.rehome_pushed += pushed["preferences_pushed"]
        report.rehome_pending += pushed["preferences_pending"]

    # Phase 6: the rebalanced campus keeps serving.
    for _ in range(final_ticks):
        run.tick()


def _drive_wave(run: _Run, migrations: List[Any]) -> None:
    """Drive one wave of migrations through faults to convergence."""
    campus = run.campus
    report = run.report
    coordinator = run.coordinator
    for migration in migrations:
        try:
            outcome = coordinator.migrate(migration)
        except SimulatedCrash:
            _handle_crash(run)
            continue
        _absorb(report, outcome)
    # Partitioned (acknowledgement-lost) migrations retry after a tick
    # of mid-flight traffic -- which is exactly when the forwarding
    # markers are exercised.
    rounds = 0
    while coordinator.pending() and rounds < 4:
        run.tick()
        for outcome in coordinator.retry_pending():
            _absorb(report, outcome)
        rounds += 1


def _handle_crash(run: _Run) -> None:
    """The crash choreography: dark probes, recovery, DSAR, resume."""
    campus = run.campus
    report = run.report
    coordinator = run.coordinator
    victim = coordinator.crashed_building
    assert victim is not None
    report.crashed = True
    report.crash_building = victim
    report.crash_step = run.injector.step - 1
    campus.mark_down(victim)
    # Fail-closed: while the destination is dark, every mid-migration
    # principal's forwarded call must fail, never answer.
    run.dark_probes()
    run.tick()
    run.dark_probes()
    # Recovery: the shard rebuilds from its WAL; its replayed migration
    # journal says how far each migration durably got.
    report.recovery = campus.recover_shard(victim, run.now)
    report.recovered = True
    journal = campus.shard(victim).tippers.recovered_migrations
    report.journal_entries = len(journal)
    # One live mid-flight tick: pending users are still marked, both
    # shards are up -- forwarded decisions flow, each carrying a marker.
    run.tick()
    # The DSAR lands on a *mid-migration* subject, then the coordinator
    # resumes from the journal; a resumed import may never re-create
    # what the erasure just removed.
    _run_dsar(run)
    for outcome in coordinator.resume_with_journal(journal):
        _absorb(report, outcome)


def _run_dsar(run: _Run) -> None:
    """The campus DSAR cycle against a mid-migration subject."""
    campus = run.campus
    report = run.report
    pending = run.coordinator.pending()
    if pending:
        subject = pending[0][0].user_id
    else:
        migrating = campus.router.migrating_principals()
        subject = migrating[0] if migrating else sorted(campus.home_of)[0]
    report.dsar_mid_flight = campus.router.migration_of(subject) is not None
    run.erase_now = run_campus_dsar(campus, report, subject, run.now)


def _absorb(report: RebalanceReport, outcome: Any) -> None:
    if outcome is None:
        return
    report.observations_moved += outcome.observations_moved
    report.preferences_moved += outcome.preferences_moved


def _check_invariants(report: RebalanceReport) -> None:
    """The acceptance invariants, machine-checked into ``violations``."""
    stats = report.migration_stats
    check_bus_accounting(report)
    if report.critical.shed or report.critical.failed:
        report.violations.append(
            "CRITICAL calls shed or failed (shed=%d failed=%d)"
            % (report.critical.shed, report.critical.failed)
        )
    if report.ring_version != 3:
        report.violations.append(
            "ring version %d after one join and one drain; expected 3"
            % report.ring_version
        )
    if report.wave1_planned < 3:
        report.violations.append(
            "join wave planned %d migration(s); the ring-change windows "
            "need at least 3" % report.wave1_planned
        )
    if report.fault_counts.get("cutover_partition", 0) != 1:
        report.violations.append(
            "cutover_partition fired %d time(s); expected exactly 1"
            % report.fault_counts.get("cutover_partition", 0)
        )
    if report.fault_counts.get("crash_mid_migration", 0) != 1:
        report.violations.append(
            "crash_mid_migration fired %d time(s); expected exactly 1"
            % report.fault_counts.get("crash_mid_migration", 0)
        )
    if not report.crashed or not report.recovered:
        report.violations.append(
            "crash/recovery did not complete (crashed=%s recovered=%s)"
            % (report.crashed, report.recovered)
        )
    if report.journal_entries < 2:
        report.violations.append(
            "recovered migration journal held %d entr(ies); expected the "
            "partitioned and crashed migrations both journaled"
            % report.journal_entries
        )
    converged = (
        stats.get("completed", 0) + stats.get("already_finalized", 0)
    )
    if converged != stats.get("planned", 0) or report.pending_remaining:
        report.violations.append(
            "migrations did not converge: planned=%d converged=%d pending=%d"
            % (stats.get("planned", 0), converged, report.pending_remaining)
        )
    if report.forwarded_responses == 0:
        report.violations.append("no forwarded mid-migration decisions served")
    if report.unmarked_responses:
        report.violations.append(
            "%d forwarded decision(s) lacked the migrating: marker"
            % report.unmarked_responses
        )
    if report.marked_responses != report.marked_audit:
        report.violations.append(
            "decision ledger: %d marked responses but %d marked audit "
            "records (lost or duplicated decisions)"
            % (report.marked_responses, report.marked_audit)
        )
    if report.failclosed_probes == 0:
        report.violations.append("no fail-closed probes ran at the dark shard")
    if report.failclosed_allows:
        report.violations.append(
            "%d probe(s) were answered while the destination was dark "
            "(fail-open)" % report.failclosed_allows
        )
    if not report.dsar_mid_flight:
        report.violations.append("the DSAR subject was not mid-migration")
    check_dsar_erased(report)
    if len(report.dsar_buildings) < 2:
        report.violations.append(
            "DSAR fan-out reached %d building(s); a mid-migration subject "
            "spans at least 2" % len(report.dsar_buildings)
        )
    check_nothing_resurrected(
        report, report.resurrected + report.journal_snapshots_with_subject,
        "post-DSAR resurrection: %d observation(s), %d journal "
        "snapshot(s) still hold the subject"
        % (report.resurrected, report.journal_snapshots_with_subject),
    )
    if report.decommissioned != [report.drained_building]:
        report.violations.append(
            "decommissioned=[%s]; expected [%s]"
            % (", ".join(report.decommissioned), report.drained_building)
        )
    if report.unknown_rejections < report.unknown_probes:
        report.violations.append(
            "unknown-building rejections (%d) below probes (%d)"
            % (report.unknown_rejections, report.unknown_probes)
        )
    if report.breaker_entries_left:
        report.violations.append(
            "%d breaker entr(ies) survived decommissioning"
            % report.breaker_entries_left
        )
    if report.rehomed_assistants == 0:
        report.violations.append("no assistants were re-homed after the moves")
