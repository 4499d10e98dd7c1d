"""Unit and scenario tests for crash recovery."""

import pytest

from repro.core.policy import catalog
from repro.errors import PolicyError, SimulatedCrash, StorageError
from repro.sensors.base import Observation
from repro.simulation.recover import run_recovery_scenario
from repro.spatial.model import build_simple_building
from repro.storage.durable import DurableAuditLog, DurableDatastore, StorageEngine
from repro.storage.recovery import is_storage_directory, recover, replay_directory
from repro.tippers.bms import TIPPERS
from repro.users.profile import UserProfile


def obs(timestamp, subject=None, sensor_type="temperature"):
    return Observation.create(
        sensor_id="s1",
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id="r1",
        payload={"v": timestamp},
        subject_id=subject,
    )


class TestReplayDirectory:
    def test_replays_snapshot_then_log(self, tmp_path):
        engine = StorageEngine(str(tmp_path), segment_bytes=256)
        datastore = DurableDatastore(engine)
        for index in range(10):
            datastore.insert(obs(float(index)))
        engine.compact()
        for index in range(10, 15):
            datastore.insert(obs(float(index)))
        engine.close()

        state = replay_directory(str(tmp_path))
        assert state.datastore.count() == 15
        assert state.report.snapshot_lsn == 10
        assert state.report.frames_replayed == 5
        assert state.report.observations_restored == 15

    def test_non_storage_directory_rejected(self, tmp_path):
        assert not is_storage_directory(str(tmp_path))
        with pytest.raises(StorageError):
            recover(str(tmp_path))

    def test_torn_tail_replays_prefix(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        datastore.insert(obs(1.0))
        engine.install_fault_plane(lambda op, rt: "torn_write")
        with pytest.raises(SimulatedCrash):
            datastore.insert(obs(2.0))
        engine.close()

        state = replay_directory(str(tmp_path))
        assert state.report.torn
        assert state.datastore.count() == 1  # the torn record never happened

    def test_report_is_deterministic(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        datastore.insert(obs(1.0, subject="mary"))
        datastore.forget_subject("mary")
        engine.close()
        first = replay_directory(str(tmp_path)).report
        second = replay_directory(str(tmp_path)).report
        assert first.to_dict() == second.to_dict()
        assert first.to_text() == second.to_text()

    def test_recover_sweeps_retention(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        datastore.insert(obs(10.0))
        datastore.insert(obs(900.0))
        engine.close()
        state = recover(
            str(tmp_path), retention_by_type={"temperature": 100.0}, now=950.0
        )
        assert state.report.retention_purged == 1
        assert state.datastore.count() == 1


class TestCrashMidErasure:
    """The DSAR satellite: erased subjects stay erased, both crash ways."""

    def seeded_engine(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        for index in range(5):
            datastore.insert(obs(float(index), subject="mary"))
        return engine, datastore

    def test_crash_after_durable_erase_record(self, tmp_path):
        engine, datastore = self.seeded_engine(tmp_path)
        engine.install_fault_plane(lambda op, rt: "crash_mid_append")
        with pytest.raises(SimulatedCrash):
            datastore.forget_subject("mary")
        engine.close()
        # The erase frame reached disk before the crash, so recovery
        # MUST apply it: the subject stays forgotten.
        state = replay_directory(str(tmp_path))
        assert state.report.erasures_applied == 1
        assert state.datastore.query(subject_id="mary") == []

    def test_torn_erase_record_is_a_clean_no_op(self, tmp_path):
        engine, datastore = self.seeded_engine(tmp_path)
        engine.install_fault_plane(lambda op, rt: "torn_write")
        with pytest.raises(SimulatedCrash):
            datastore.forget_subject("mary")
        # Memory never applied the erase either (log-then-apply), so
        # the live and recovered views agree: nothing was erased.
        assert len(datastore.query(subject_id="mary")) == 5
        engine.close()
        state = replay_directory(str(tmp_path))
        assert state.report.erasures_applied == 0
        assert len(state.datastore.query(subject_id="mary")) == 5

    def test_erasure_survives_compaction_and_recovery(self, tmp_path):
        engine, datastore = self.seeded_engine(tmp_path)
        datastore.forget_subject("mary")
        engine.compact()
        engine.close()
        state = replay_directory(str(tmp_path))
        assert state.datastore.query(subject_id="mary") == []


def make_building_tippers(storage):
    spatial = build_simple_building("hq", floors=1, rooms_per_floor=2)
    tippers = TIPPERS(spatial, "hq", storage=storage)
    tippers.define_policy(
        catalog.policy_service_sharing("hq")
    )
    tippers.add_user(UserProfile(user_id="mary", name="Mary"))
    return tippers


class TestTippersRecover:
    def test_requires_storage(self):
        spatial = build_simple_building("hq", floors=1, rooms_per_floor=2)
        tippers = TIPPERS(spatial, "hq")
        with pytest.raises(PolicyError):
            tippers.recover(0.0)

    def test_requires_fresh_instance(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        tippers = make_building_tippers(engine)
        tippers.datastore.insert(obs(1.0))
        with pytest.raises(PolicyError):
            tippers.recover(2.0)
        engine.close()

    def test_round_trip_restores_preferences(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        tippers = make_building_tippers(engine)
        tippers.datastore.insert(obs(1.0, subject="mary"))
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        engine.close()

        engine2 = StorageEngine(str(tmp_path))
        rebuilt = make_building_tippers(engine2)
        report = rebuilt.recover(2.0)
        assert report.observations_restored == 1
        assert report.preferences_restored == 1
        prefs = rebuilt.preference_manager.preferences_of("mary")
        assert [p.preference_id for p in prefs] == ["pref-2-mary-location"]
        # The replayed round trip must not have re-logged anything.
        assert engine2.wal.appends == 0
        engine2.close()

    def test_withdrawn_preferences_stay_withdrawn(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        tippers = make_building_tippers(engine)
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        tippers.preference_manager.withdraw_all("mary")
        engine.close()

        engine2 = StorageEngine(str(tmp_path))
        rebuilt = make_building_tippers(engine2)
        report = rebuilt.recover(1.0)
        assert report.preferences_restored == 0
        assert rebuilt.preference_manager.preferences_of("mary") == []
        engine2.close()


class TestRecoveryScenario:
    def test_torn_storage_plan_crashes_and_recovers(self):
        report = run_recovery_scenario(plan_name="torn-storage", seed=11)
        assert report.crashed
        assert report.erase_done and report.preference_submitted
        assert report.recovery is not None
        assert report.ok, report.violations

    def test_crashy_storage_plan_crashes_and_recovers(self):
        report = run_recovery_scenario(plan_name="crashy-storage", seed=11)
        assert report.crashed
        assert report.ok, report.violations

    def test_report_text_has_stable_shape(self):
        report = run_recovery_scenario(plan_name="torn-storage", seed=11)
        text = report.report_text
        assert text.endswith("result: OK\n")
        assert "recovery: snapshot_lsn=" in text
        assert "invariants: audit_prefix=True erasure=True retention=True" in text
