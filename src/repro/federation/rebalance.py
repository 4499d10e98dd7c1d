"""Crash-tolerant shard rebalancing for ring changes.

When a building joins or drains, the hash ring hands back a *migration
delta* -- ``user_id -> (old_home, new_home)`` -- and this module turns
that plan into per-user, two-phase, WAL-journaled migrations:

1. **freeze + copy** -- the source shard snapshots the user's profile,
   preferences, datastore rows, and compiled-table eviction into a
   ``migration`` WAL record (role ``source``), the destination journals
   the same snapshot (role ``dest``) *before* applying it, applies it
   idempotently, then journals ``committed``;
2. **cutover** -- the router forwards in-flight calls for the user to
   the new home only (with a ``migrating:<from>:<to>`` audit marker),
   and once the destination has acknowledged the import the source
   tombstones its copy (DSAR-grade erase + preference withdrawal +
   directory removal) and journals ``tombstone``.

The order of journal writes is the crash-safety argument:

- the destination journals the snapshot **before** applying it, so a
  destination crash mid-import replays to the exact imported state;
- the source tombstones **only after** the destination acknowledged
  ``committed``, so no crash can leave the user on zero shards;
- every step is idempotent (re-export re-snapshots live state, import
  skips observation ids it already holds, preference submit is
  latest-wins, tombstone is a no-op on an absent user), so replaying a
  half-done migration -- from either shard's WAL -- converges without
  duplicating or losing a single decision.

Faults are injected through the same plane mechanism the storage and
bus layers use: the :class:`~repro.faults.injector.FaultInjector`
installs a callable the coordinator consults at each step boundary.
``crash_mid_migration`` kills the shard that owns the step (source for
copy/finalize, destination for import -- *after* its journal landed, so
recovery exercises the committed-import replay path);
``cutover_partition`` loses the step's acknowledgement, leaving the
migration pending for :meth:`RebalanceCoordinator.retry_pending`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, SimulatedCrash
from repro.federation.campus import Campus
from repro.federation.router import ROUTER_CALL_DEADLINE_S, SHARD_ENDPOINT_PREFIX
from repro.net.resilience import Deadline, RetryPolicy

#: Step names the fault plane is consulted with (spec targets match
#: either the step name or the migrating user's id).
STEP_COPY = "copy"
STEP_IMPORT = "import"
STEP_FINALIZE = "finalize"

#: Fault-kind values the plane may return (string forms of
#: :data:`repro.faults.plan.MIGRATION_KINDS`; string-typed here so this
#: module never imports the fault layer).
KIND_CRASH = "crash_mid_migration"
KIND_PARTITION = "cutover_partition"


@dataclass(frozen=True)
class UserMigration:
    """One user's planned move between shards."""

    migration_id: str
    user_id: str
    source: str
    dest: str


@dataclass(frozen=True)
class MigrationOutcome:
    """What happened to one migration attempt (counts only: no
    timestamps, no object reprs -- outcomes feed byte-reproducible
    scenario reports)."""

    migration_id: str
    user_id: str
    source: str
    dest: str
    #: ``completed`` | ``already_finalized`` | ``partitioned`` |
    #: ``blocked``
    status: str
    observations_moved: int = 0
    preferences_moved: int = 0


class RebalanceCoordinator:
    """Executes a migration delta as two-phase per-user migrations.

    The coordinator owns no durable state of its own -- everything it
    needs to resume after a crash is in the shards' WALs (surfaced by
    recovery as :attr:`repro.tippers.bms.TIPPERS.recovered_migrations`)
    plus the in-memory pending set, which is reconstructible from the
    original delta.  All shard calls go through the federation router's
    bus path, so they compete for admission, trip breakers, and burn
    deadline budget exactly like any other campus traffic; pass a
    ``retry_policy`` to wrap each step call in bounded retries.
    """

    def __init__(
        self, campus: Campus, retry_policy: Optional[RetryPolicy] = None
    ) -> None:
        self.campus = campus
        self.retry_policy = retry_policy
        self._planes: List[Callable[[str, str], Tuple[str, ...]]] = []
        #: migration_id -> (migration, stage it stalled at).
        self._pending: Dict[str, Tuple[UserMigration, str]] = {}
        #: migration_id -> its final outcome (the cached result a
        #: repeated ``migrate`` call returns).
        self._completed: Dict[str, MigrationOutcome] = {}
        #: Set when a ``crash_mid_migration`` fault fires: the building
        #: the scenario must ``mark_down`` and later recover.
        self.crashed_building: Optional[str] = None
        self._next_plan_id = 1
        self.stats: Dict[str, int] = {
            "planned": 0,
            "completed": 0,
            "already_finalized": 0,
            "partitioned": 0,
            "blocked": 0,
            "crashes": 0,
            "retried": 0,
            "resumed_committed": 0,
        }

    # ------------------------------------------------------------------
    # Fault plane (installed by FaultInjector.install_rebalancer)
    # ------------------------------------------------------------------
    def install_fault_plane(
        self, plane: Callable[[str, str], Tuple[str, ...]]
    ) -> None:
        self._planes.append(plane)

    def remove_fault_plane(
        self, plane: Callable[[str, str], Tuple[str, ...]]
    ) -> None:
        if plane in self._planes:
            self._planes.remove(plane)

    def _consult(self, step: str, migration: UserMigration) -> Tuple[str, ...]:
        fired: Tuple[str, ...] = ()
        for plane in self._planes:
            fired += tuple(plane(step, migration.user_id))
        return fired

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_for_delta(
        self, delta: Dict[str, Tuple[str, str]]
    ) -> List[UserMigration]:
        """Deterministic per-user migration plan for a ring delta."""
        migrations: List[UserMigration] = []
        for user_id in sorted(delta):
            old_home, new_home = delta[user_id]
            migrations.append(
                UserMigration(
                    migration_id="mig-%04d-%s" % (self._next_plan_id, user_id),
                    user_id=user_id,
                    source=old_home,
                    dest=new_home,
                )
            )
            self._next_plan_id += 1
            self.stats["planned"] += 1
        return migrations

    def pending(self) -> List[Tuple[UserMigration, str]]:
        """Stalled migrations, sorted by migration id."""
        return [self._pending[k] for k in sorted(self._pending)]

    # ------------------------------------------------------------------
    # Shard calls
    # ------------------------------------------------------------------
    def _call(
        self,
        building_id: str,
        method: str,
        payload: Dict[str, Any],
        principal: str,
    ) -> Dict[str, Any]:
        router = self.campus.router
        # Same validation (counted unknown-building rejection) and
        # deadline budget as the router path, plus the coordinator's
        # retries when it has a policy.  The bus target is spelled
        # PREFIX + id so the privacy-flow analyzer resolves the
        # dispatch through its prefix map.
        router.shard_endpoint(building_id)
        router.metrics.counter(
            "federation_routed_calls_total", {"building": building_id}
        ).inc()
        return self.campus.bus.call(
            SHARD_ENDPOINT_PREFIX + building_id,
            method,
            payload,
            retry_policy=self.retry_policy,
            deadline=Deadline(ROUTER_CALL_DEADLINE_S),
            principal=principal,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def migrate(self, migration: UserMigration) -> MigrationOutcome:
        """Run one migration end to end (or as far as faults allow).

        Safe to call again for a migration that stalled or crashed: every
        step re-runs idempotently.  Raises :class:`SimulatedCrash` when
        the fault plane kills a shard mid-step; :attr:`crashed_building`
        then names the victim.
        """
        m = migration
        done = self._completed.get(m.migration_id)
        if done is not None:
            return done
        router = self.campus.router
        router.mark_migrating(m.user_id, m.source, m.dest)
        self.campus.metrics.counter(
            "federation_migrations_started_total", {"to": m.dest}
        ).inc()

        # -- Phase 1: freeze + copy -----------------------------------
        fired = self._consult(STEP_COPY, m)
        if KIND_CRASH in fired:
            return self._crash(m, STEP_COPY, m.source)
        if KIND_PARTITION in fired:
            return self._stall(m, STEP_COPY, "partitioned")
        try:
            snapshot_reply = self._call(
                m.source,
                "migrate_export",
                {
                    "migration_id": m.migration_id,
                    "user_id": m.user_id,
                    "to_building": m.dest,
                },
                principal=m.user_id,
            )
        except NetworkError:
            return self._stall(m, STEP_COPY, "blocked")
        if not snapshot_reply.get("found", False):
            # The source already tombstoned this user: a prior attempt
            # finalized but its acknowledgement was lost.  Converge.
            return self._complete(m, "already_finalized", {}, {})

        try:
            import_reply = self._call(
                m.dest,
                "migrate_import",
                {
                    "migration_id": m.migration_id,
                    "user_id": m.user_id,
                    "from_building": m.source,
                    "snapshot": snapshot_reply["snapshot"],
                },
                principal=m.user_id,
            )
        except NetworkError:
            return self._stall(m, STEP_IMPORT, "blocked")
        # The import consult sits *after* the call: a crash here models
        # the destination dying with ``committed`` already journaled
        # (recovery must take the finalize-only path), and a partition
        # models a lost acknowledgement (retry re-imports idempotently).
        fired = self._consult(STEP_IMPORT, m)
        if KIND_CRASH in fired:
            return self._crash(m, STEP_IMPORT, m.dest)
        if KIND_PARTITION in fired:
            return self._stall(m, STEP_IMPORT, "partitioned")

        # -- Phase 2: cutover -----------------------------------------
        return self._finalize(m, import_reply)

    def _finalize(
        self, m: UserMigration, import_reply: Dict[str, Any]
    ) -> MigrationOutcome:
        fired = self._consult(STEP_FINALIZE, m)
        if KIND_CRASH in fired:
            return self._crash(m, STEP_FINALIZE, m.source)
        if KIND_PARTITION in fired:
            return self._stall(m, STEP_FINALIZE, "partitioned")
        try:
            finalize_reply = self._call(
                m.source,
                "migrate_finalize",
                {
                    "migration_id": m.migration_id,
                    "user_id": m.user_id,
                    "to_building": m.dest,
                },
                principal=m.user_id,
            )
        except NetworkError:
            return self._stall(m, STEP_FINALIZE, "blocked")
        return self._complete(m, "completed", import_reply, finalize_reply)

    # ------------------------------------------------------------------
    # Resumption
    # ------------------------------------------------------------------
    def retry_pending(self) -> List[MigrationOutcome]:
        """Re-drive every stalled migration, in migration-id order."""
        outcomes: List[MigrationOutcome] = []
        for migration, stage in self.pending():
            self.stats["retried"] += 1
            if stage == STEP_FINALIZE:
                # The destination acknowledged the import; only the
                # source-side tombstone is outstanding.
                del self._pending[migration.migration_id]
                outcomes.append(self._finalize(migration, {}))
            else:
                # Stalled before the import acknowledgement: never trust
                # a stale snapshot -- re-export live state (a DSAR may
                # have landed at the source since the copy was taken).
                del self._pending[migration.migration_id]
                outcomes.append(self.migrate(migration))
        return outcomes

    def resume_with_journal(
        self, journal: Dict[str, Dict[str, Any]]
    ) -> List[MigrationOutcome]:
        """Resume after a shard crash, guided by its replayed WAL.

        ``journal`` is a recovered shard's ``recovered_migrations``
        (migration_id -> latest journaled phase).  A destination entry
        at ``committed`` proves the import landed durably, so only the
        source tombstone re-runs; anything earlier re-drives the whole
        migration from a fresh export.
        """
        self.crashed_building = None
        outcomes: List[MigrationOutcome] = []
        for migration, _stage in self.pending():
            entry = journal.get(migration.migration_id, {})
            del self._pending[migration.migration_id]
            if (
                entry.get("phase") == "committed"
                and entry.get("role") == "dest"
            ):
                self.stats["resumed_committed"] += 1
                outcomes.append(self._finalize(migration, {}))
            else:
                self.stats["retried"] += 1
                outcomes.append(self.migrate(migration))
        return outcomes

    # ------------------------------------------------------------------
    # Outcome bookkeeping
    # ------------------------------------------------------------------
    def _crash(
        self, m: UserMigration, stage: str, victim: str
    ) -> MigrationOutcome:
        self._pending[m.migration_id] = (m, stage)
        self.crashed_building = victim
        self.stats["crashes"] += 1
        self.campus.metrics.counter(
            "federation_migrations_total", {"outcome": "crashed"}
        ).inc()
        raise SimulatedCrash(
            "shard %r crashed during %s of %s" % (victim, stage, m.migration_id)
        )

    def _stall(
        self, m: UserMigration, stage: str, status: str
    ) -> MigrationOutcome:
        self._pending[m.migration_id] = (m, stage)
        self.stats[status] += 1
        self.campus.metrics.counter(
            "federation_migrations_total", {"outcome": status}
        ).inc()
        return self._outcome(m, status)

    def _complete(
        self,
        m: UserMigration,
        status: str,
        import_reply: Dict[str, Any],
        finalize_reply: Dict[str, Any],
    ) -> MigrationOutcome:
        self._pending.pop(m.migration_id, None)
        self.campus.router.clear_migrating(m.user_id)
        if status in ("completed", "already_finalized"):
            # ``already_finalized`` means a prior attempt tombstoned the
            # source but its acknowledgement was lost before the campus
            # metadata flipped -- flip it now.
            self.campus.complete_migration(m.user_id, m.source, m.dest)
        self.stats[status] += 1
        self.campus.metrics.counter(
            "federation_migrations_total", {"outcome": status}
        ).inc()
        outcome = MigrationOutcome(
            migration_id=m.migration_id,
            user_id=m.user_id,
            source=m.source,
            dest=m.dest,
            status=status,
            observations_moved=int(
                import_reply.get("observations_imported", 0)
            ),
            preferences_moved=int(
                import_reply.get("preferences_imported", 0)
            ),
        )
        self._completed[m.migration_id] = outcome
        return outcome

    def _outcome(self, m: UserMigration, status: str) -> MigrationOutcome:
        return MigrationOutcome(
            migration_id=m.migration_id,
            user_id=m.user_id,
            source=m.source,
            dest=m.dest,
            status=status,
        )
