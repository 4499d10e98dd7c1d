"""Differential test: the WAL-backed audit log against an in-memory list.

A storage-backed TIPPERS keeps no audit record in memory; its log reads
the write-ahead log back.  The reference here is the plain in-memory
:class:`~repro.core.enforcement.audit.AuditLog` holding every record the
durable log was handed (recorded once the WAL append returned).  A
seeded run of captures, queries, preference changes and erasures must
leave the two giving the same records, summary and per-subject records:
while running, after a compaction folds the log into a snapshot, and
after a torn write crashes the process and a fresh one recovers the
directory.
"""

from __future__ import annotations

import random

import pytest

from repro.core.enforcement.audit import AuditLog
from repro.core.policy import catalog
from repro.core.policy.base import RequesterKind
from repro.errors import NetworkError, PolicyError, ServiceError, SimulatedCrash
from repro.storage.durable import DurableAuditLog, StorageEngine
from repro.tippers.bms import TIPPERS
from repro.tippers.dsar import erase_subject, subject_access_report

USERS = ("mary", "bob")
ROOMS = ("b-1001", "b-1002", "b-1003", "b-2001")
MACS = {"mary": "aa:bb:cc:00:00:01", "bob": "aa:bb:cc:00:00:02"}


def build(small_building, mary, bob, storage: StorageEngine) -> TIPPERS:
    tippers = TIPPERS(small_building, "b", owner_name="UCI", storage=storage)
    tippers.define_policy(catalog.policy_2_emergency_location("b"))
    tippers.define_policy(catalog.policy_service_sharing("b"))
    tippers.define_policy(catalog.policy_1_comfort(["b-1001", "b-1002"]))
    tippers.add_user(mary)
    tippers.add_user(bob)
    tippers.deploy_sensor("wifi_access_point", "ap-1", "b-1001")
    tippers.deploy_sensor("wifi_access_point", "ap-2", "b-1002")
    tippers.deploy_sensor("motion_sensor", "motion-1", "b-1001")
    return tippers


def run(tippers: TIPPERS, world, rng: random.Random, start: float, steps: int) -> float:
    """``steps`` seeded operations from ``start``; returns the last time."""
    now = start
    for _ in range(steps):
        now += 30.0
        action = rng.random()
        if action < 0.2:
            world.clear()
            for user in USERS:
                world.put(user, MACS[user], rng.choice(("b-1001", "b-1002")))
            tippers.tick(now, world)
        elif action < 0.8:
            kind = rng.choice(list(RequesterKind))
            try:
                if rng.random() < 0.5:
                    tippers.locate_user("svc", kind, rng.choice(USERS), now)
                else:
                    tippers.room_occupancy("svc", kind, rng.choice(ROOMS), now)
            except (NetworkError, PolicyError, ServiceError):
                pass
        elif action < 0.9:
            tippers.submit_preference(
                catalog.preference_2_no_location(rng.choice(USERS))
            )
        elif action < 0.95:
            tippers.preference_manager.withdraw_all(rng.choice(USERS))
        else:
            erase_subject(tippers, rng.choice(USERS), now)
    return now


def assert_same_trail(audit: AuditLog, reference: AuditLog) -> None:
    assert isinstance(audit, DurableAuditLog)
    assert list(audit) == list(reference)
    assert len(audit) == len(reference)
    assert audit.summary() == reference.summary()
    for subject_id in USERS + ("nobody",):
        assert audit.records(subject_id=subject_id) == reference.records(
            subject_id=subject_id
        )
    assert audit.denials() == reference.denials()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wal_trail_matches_in_memory_list(
    seed, small_building, mary, bob, world, tmp_path, monkeypatch
):
    reference = AuditLog()
    durable_append = DurableAuditLog.append

    # Every record reaches the log through ``append``, a compiled row's
    # ``payload_tail`` included; forwarding it keeps the served lane
    # under test rather than routing it through ``log_audit``.
    served = []

    def recording_append(self, record, payload_tail=None):
        durable_append(self, record, payload_tail)
        AuditLog.append(reference, record)
        served.append(payload_tail is not None)

    monkeypatch.setattr(DurableAuditLog, "append", recording_append)
    rng = random.Random(seed)
    directory = str(tmp_path)
    storage = StorageEngine(directory, segment_bytes=4096)
    tippers = build(small_building, mary, bob, storage)

    now = run(tippers, world, rng, 43200.0, 150)
    assert len(reference) > 100
    assert any(served) and not all(served)  # both the lane and log_audit
    assert_same_trail(tippers.audit, reference)

    storage.compact()
    assert_same_trail(tippers.audit, reference)
    now = run(tippers, world, rng, now, 150)
    assert_same_trail(tippers.audit, reference)
    report = subject_access_report(tippers, "mary", now)
    assert report.decisions_total == len(reference.records(subject_id="mary"))

    # A torn write on the next audit append crashes the process: that
    # record never reaches the reference, and only its torn prefix
    # reaches the disk.
    storage.wal.install_fault_plane(
        lambda op, record_type: "torn_write" if record_type == "audit" else None
    )
    with pytest.raises(SimulatedCrash):
        run(tippers, world, rng, now, 1000)
    storage.close()

    storage = StorageEngine(directory, segment_bytes=4096)
    recovered = build(small_building, mary, bob, storage)
    recovery = recovered.recover(now + 3600.0)
    assert recovery.audit_restored == len(reference)
    assert_same_trail(recovered.audit, reference)
    storage.close()
