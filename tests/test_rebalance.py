"""Unit tests for crash-tolerant shard rebalancing.

The coordinator's two-phase protocol is exercised step by step: a clean
migration moves observations and preferences and flips the campus
metadata, a partitioned finalize leaves the user mid-flight (served
fail-closed through marked forwarding) until a retry converges, and a
destination crash right after the import committed resumes through the
replayed WAL journal without re-copying.  The decommissioning tests
pin the satellite behaviours: breaker eviction on unregister, counted
unknown-building rejections, and the drain-first/empty-first guards.
"""

import pytest

from repro.core.policy import catalog
from repro.errors import FederationError, NetworkError, SimulatedCrash
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.federation import Campus, RebalanceCoordinator
from repro.net.resilience import BreakerBoard
from repro.obs.metrics import MetricsRegistry
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld

BUILDINGS = ("bldg-a", "bldg-b", "bldg-c")
NEW = "bldg-d"
NOON = 12 * 3600.0


def _campus(tmp_path, buildings=BUILDINGS):
    return Campus(
        buildings,
        seed=11,
        metrics=MetricsRegistry(),
        storage_root=str(tmp_path),
        floors=1,
        rooms_per_floor=2,
    )


def _populate(campus, count=30):
    """Residents at their ring homes, each with one noon observation."""
    user_ids = ["reb-user-%03d" % index for index in range(count)]
    by_building = {}
    for user_id in user_ids:
        by_building.setdefault(
            campus.router.home_building(user_id), []
        ).append(user_id)
    for building_id, ids in sorted(by_building.items()):
        shard = campus.shard(building_id)
        people = generate_inhabitants(
            shard.spatial, len(ids), seed=5,
            building_id=building_id, user_ids=ids,
        )
        for person in people:
            campus.add_resident(building_id, person.profile)
        world = BuildingWorld(shard.spatial, people, seed=3)
        world.step(NOON)
        shard.tippers.tick(NOON, world)
        for person in people:
            campus.record_presence(person.user_id, building_id)
    return user_ids


def _join_wave(campus):
    """Add the fourth building; returns the planned join migrations."""
    coordinator = RebalanceCoordinator(campus)
    delta = campus.add_building(NEW)
    migrations = coordinator.plan_for_delta(delta)
    assert migrations, "no key moved when %s joined" % NEW
    return coordinator, migrations


def _stored_subjects(shard):
    datastore = shard.tippers.datastore
    return {
        obs.subject_id
        for name in datastore.stream_names()
        for obs in datastore.query(sensor_type=name)
        if obs.subject_id is not None
    }


# ----------------------------------------------------------------------
# The two-phase protocol, clean path
# ----------------------------------------------------------------------
def test_clean_migration_moves_data_and_flips_metadata(tmp_path):
    campus = _campus(tmp_path)
    _populate(campus)
    coordinator, migrations = _join_wave(campus)
    migration = migrations[0]
    source = campus.shard(migration.source)
    assert migration.user_id in _stored_subjects(source)

    outcome = coordinator.migrate(migration)

    assert outcome.status == "completed"
    assert outcome.observations_moved > 0
    dest = campus.shard(NEW)
    assert migration.user_id in _stored_subjects(dest)
    assert migration.user_id not in _stored_subjects(source)
    assert campus.home_of[migration.user_id] == NEW
    assert migration.user_id in {p.user_id for p in dest.residents}
    assert campus.router.migration_of(migration.user_id) is None
    campus.close()


def test_migrate_twice_returns_the_cached_outcome(tmp_path):
    campus = _campus(tmp_path)
    _populate(campus)
    coordinator, migrations = _join_wave(campus)
    first = coordinator.migrate(migrations[0])
    again = coordinator.migrate(migrations[0])
    assert again is first
    assert coordinator.stats["completed"] == 1
    campus.close()


def test_preferences_travel_with_the_migration(tmp_path):
    campus = _campus(tmp_path)
    _populate(campus)
    coordinator, migrations = _join_wave(campus)
    migration = migrations[0]
    profile = campus.profile_of(migration.user_id)
    office = profile.office_id or "%s-1001" % migration.source
    source = campus.shard(migration.source)
    source.tippers.preference_manager.submit(
        catalog.preference_1_office_after_hours(migration.user_id, office)
    )

    outcome = coordinator.migrate(migration)

    assert outcome.preferences_moved >= 1
    dest = campus.shard(NEW)
    assert dest.tippers.preference_manager.preferences_of(migration.user_id)
    campus.close()


# ----------------------------------------------------------------------
# Partitioned finalize: mid-flight, marked forwarding, retry converges
# ----------------------------------------------------------------------
def _partition_at(step, start=0, stop=None):
    return single_spec_plan(
        FaultSpec(
            kind=FaultKind.CUTOVER_PARTITION,
            target=step,
            start=start,
            stop=stop if stop is not None else start + 1,
        )
    )


def test_partitioned_finalize_stays_pending_then_retries(tmp_path):
    campus = _campus(tmp_path)
    _populate(campus)
    coordinator, migrations = _join_wave(campus)
    migration = migrations[0]
    # The first migration's consults land on steps 0 (copy), 1
    # (import acknowledgement), 2 (finalize).
    injector = FaultInjector(_partition_at("finalize", start=2))
    injector.install_rebalancer(coordinator)
    try:
        outcome = coordinator.migrate(migration)
        assert outcome.status == "partitioned"
        assert coordinator.pending()
        # Mid-flight: routed calls are forwarded to the destination
        # with the migrating marker on the decision.
        assert campus.router.migration_of(migration.user_id) == (
            migration.source, NEW,
        )
        response = campus.router.call_home(
            migration.user_id,
            "locate_user",
            {
                "requester_id": "svc-occupancy",
                "requester_kind": "building_service",
                "subject_id": migration.user_id,
                "now": NOON,
            },
            principal="svc-occupancy",
        )
        marker = "migrating:%s:%s" % (migration.source, NEW)
        assert any(r.startswith(marker) for r in response["reasons"])
        dest = campus.shard(NEW)
        marked = [
            record for record in dest.tippers.audit
            if any(r.startswith(marker) for r in record.reasons)
        ]
        assert marked, "forwarded decision missing from the audit trail"

        retried = coordinator.retry_pending()
    finally:
        injector.uninstall()
    assert [o.status for o in retried] == ["completed"]
    assert not coordinator.pending()
    assert campus.home_of[migration.user_id] == NEW
    assert campus.router.migration_of(migration.user_id) is None
    campus.close()


def test_unmarked_forwarding_is_impossible_by_construction(tmp_path):
    """Every forwarded call carries the marker: the router injects it
    into the payload before the destination ever sees the request, so
    a forwarded-but-unmarked decision cannot be produced."""
    campus = _campus(tmp_path)
    _populate(campus)
    coordinator, migrations = _join_wave(campus)
    migration = migrations[0]
    campus.router.mark_migrating(
        migration.user_id, migration.source, NEW
    )
    seen = []
    original = campus.router.call_building

    def spy(building_id, method, payload, principal=None):
        seen.append((building_id, payload.get("migration_marker")))
        return original(building_id, method, payload, principal=principal)

    campus.router.call_building = spy
    try:
        campus.router.call_home(
            migration.user_id,
            "room_occupancy",
            {
                "requester_id": "svc-occupancy",
                "requester_kind": "building_service",
                "space_id": "%s-1001" % NEW,
                "now": NOON,
            },
            principal="svc-occupancy",
        )
    finally:
        campus.router.call_building = original
        campus.router.clear_migrating(migration.user_id)
    assert seen == [
        (NEW, "migrating:%s:%s" % (migration.source, NEW))
    ]
    campus.close()


# ----------------------------------------------------------------------
# Crash mid-import: journal-guided resumption
# ----------------------------------------------------------------------
def test_crash_after_import_commit_resumes_via_journal(tmp_path):
    campus = _campus(tmp_path)
    _populate(campus)
    coordinator, migrations = _join_wave(campus)
    migration = migrations[0]
    injector = FaultInjector(
        single_spec_plan(
            FaultSpec(
                kind=FaultKind.CRASH_MID_MIGRATION,
                target="import",
                start=1,
                stop=2,
            )
        )
    )
    injector.install_rebalancer(coordinator)
    try:
        with pytest.raises(SimulatedCrash):
            coordinator.migrate(migration)
    finally:
        injector.uninstall()
    assert coordinator.crashed_building == NEW
    assert coordinator.pending()
    campus.mark_down(NEW)

    # Fail-closed while the destination is dark: the forwarded call
    # must fail, never answer from the stale source copy.
    with pytest.raises((NetworkError, FederationError)):
        campus.router.call_home(
            migration.user_id,
            "locate_user",
            {
                "requester_id": "svc-occupancy",
                "requester_kind": "building_service",
                "subject_id": migration.user_id,
                "now": NOON,
            },
            principal="svc-occupancy",
        )

    campus.recover_shard(NEW, NOON + 60.0)
    journal = campus.shard(NEW).tippers.recovered_migrations
    assert journal, "the import never reached the WAL"
    entry = journal[migration.migration_id]
    assert entry.get("phase") == "committed"

    outcomes = coordinator.resume_with_journal(journal)
    assert [o.status for o in outcomes] == ["completed"]
    assert coordinator.stats["resumed_committed"] == 1
    assert campus.home_of[migration.user_id] == NEW
    assert migration.user_id in _stored_subjects(campus.shard(NEW))
    assert migration.user_id not in _stored_subjects(
        campus.shard(migration.source)
    )
    campus.close()


# ----------------------------------------------------------------------
# Decommissioning: guards, breaker eviction, counted rejections
# ----------------------------------------------------------------------
def test_decommission_requires_drain_first(tmp_path):
    campus = _campus(tmp_path)
    with pytest.raises(FederationError):
        campus.decommission_building("bldg-a")
    campus.close()


def test_decommission_refuses_while_users_are_still_home(tmp_path):
    campus = _campus(tmp_path)
    _populate(campus)
    drained = "bldg-a"
    delta = campus.drain_building(drained)
    assert delta, "no user was homed at %s" % drained
    with pytest.raises(FederationError):
        campus.decommission_building(drained)
    campus.close()


def test_decommission_evicts_breakers_and_counts_rejections(tmp_path):
    campus = _campus(tmp_path)
    _populate(campus)
    coordinator = RebalanceCoordinator(campus)
    drained = "bldg-a"
    shard = campus.shard(drained)
    endpoints = {shard.endpoint, shard.registry_endpoint}
    # Warm the breakers so there is an entry to evict.
    campus.router.call_building(
        drained, "get_policy_document", {}, principal="svc-policy-sync"
    )
    for migration in coordinator.plan_for_delta(
        campus.drain_building(drained)
    ):
        coordinator.migrate(migration)

    campus.decommission_building(drained)

    assert campus.decommissioned == [drained]
    # The retired shard's records and rows leave the summed gauges.
    shards = campus.shards()
    assert campus.metrics.gauge("audit_records").value == sum(
        len(shard.tippers.audit) for shard in shards
    )
    assert campus.metrics.gauge("enforcement_table_rows").value == sum(
        shard.tippers.engine.table_rows for shard in shards
    )
    states = campus.bus.breakers.states()
    assert not endpoints & set(states)
    with pytest.raises(FederationError):
        campus.router.call_building(
            drained, "get_policy_document", {}, principal="svc-policy-sync"
        )
    assert (
        campus.metrics.total("federation_unknown_building_total") >= 1
    )
    campus.close()


def test_unregister_keeps_breaker_entry_by_default():
    board = BreakerBoard()
    board.record_failure("svc-a")
    assert "svc-a" in board.states()
    board.evict("svc-a")
    assert "svc-a" not in board.states()
    # Evicting an absent target is a no-op, not an error.
    board.evict("svc-a")
