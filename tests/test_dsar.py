"""Unit tests for subject access and erasure."""

import pytest

from repro.core.enforcement.audit import AuditRecord
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.errors import PolicyError
from repro.storage.durable import StorageEngine
from repro.tippers.bms import TIPPERS
from repro.tippers.dsar import erase_subject, subject_access_report


def populate(tippers, world, ticks=3):
    world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
    for tick in range(ticks):
        tippers.tick(43200.0 + tick * 61.0, world)
    return 43200.0 + ticks * 61.0


class TestSubjectAccessReport:
    def test_counts_stored_observations(self, tippers, world):
        now = populate(tippers, world)
        report = subject_access_report(tippers, "mary", now)
        assert report.observations_total > 0
        assert "wifi_access_point" in report.observations_by_stream
        assert report.earliest_observation <= report.latest_observation

    def test_counts_decisions(self, tippers, world):
        now = populate(tippers, world)
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        tippers.locate_user("concierge", RequesterKind.BUILDING_SERVICE, "mary", now)
        report = subject_access_report(tippers, "mary", now + 1)
        assert report.decisions_total > 0
        assert report.decisions_denied >= 1

    def test_lists_preferences_and_conflicts(self, tippers, world):
        now = populate(tippers, world)
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        report = subject_access_report(tippers, "mary", now)
        assert report.preferences == ("pref-2-mary-location",)
        assert report.conflicts, "opt-out conflicts with the mandatory policy"

    def test_covering_policies_listed(self, tippers):
        report = subject_access_report(tippers, "mary", 0.0)
        assert "policy-2-emergency" in report.covering_policies

    def test_unknown_user_rejected(self, tippers):
        with pytest.raises(PolicyError):
            subject_access_report(tippers, "ghost", 0.0)

    def test_summary_lines_render(self, tippers, world):
        now = populate(tippers, world)
        report = subject_access_report(tippers, "mary", now)
        lines = report.summary_lines()
        assert any("stored observations" in line for line in lines)
        assert any("mary" in line for line in lines)

    def test_empty_report_for_unseen_user(self, tippers):
        report = subject_access_report(tippers, "bob", 0.0)
        assert report.observations_total == 0
        assert report.earliest_observation is None


class TestDurableDecisionCount:
    """A storage-backed report counts every decision in the durable trail."""

    def decision(self, index, subject="mary"):
        return AuditRecord(
            timestamp=float(index),
            requester_id="svc",
            phase=DecisionPhase.SHARING,
            category="location",
            subject_id=subject,
            space_id="b-1001",
            effect=Effect.DENY if index % 3 == 0 else Effect.ALLOW,
            granularity=GranularityLevel.PRECISE,
            reasons=("r",),
            notify_user=index % 5 == 0,
        )

    def test_counts_every_decision_past_the_window(
        self, small_building, mary, bob, tmp_path
    ):
        engine = StorageEngine(str(tmp_path))
        bms = TIPPERS(small_building, "b", storage=engine)
        bms.add_user(mary)
        bms.add_user(bob)
        for index in range(25):
            bms.audit.append(self.decision(index))
            bms.audit.append(self.decision(index, subject="bob"))
        assert len(bms.audit) == 50
        report = subject_access_report(bms, "mary", 100.0)
        assert report.decisions_total == 25
        assert report.decisions_denied == 9  # 0, 3, ..., 24
        assert report.decisions_overridden == 3  # 5, 10, 20
        engine.close()


class TestErasure:
    def test_observations_deleted(self, tippers, world):
        now = populate(tippers, world)
        before = subject_access_report(tippers, "mary", now)
        receipt = erase_subject(tippers, "mary", now)
        assert receipt.erased_observations == before.observations_total
        after = subject_access_report(tippers, "mary", now + 1)
        assert after.observations_total == 0

    def test_other_users_untouched(self, tippers, world):
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        world.put("bob", "aa:bb:cc:00:00:02", "b-1002")
        tippers.tick(43200.0, world)
        erase_subject(tippers, "mary", 43300.0)
        bob_report = subject_access_report(tippers, "bob", 43400.0)
        assert bob_report.observations_total > 0

    def test_preferences_kept_by_default(self, tippers, world):
        now = populate(tippers, world)
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        receipt = erase_subject(tippers, "mary", now)
        assert receipt.withdrawn_preferences == 0
        assert tippers.preference_manager.preferences_of("mary")

    def test_preferences_withdrawn_on_request(self, tippers, world):
        now = populate(tippers, world)
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        receipt = erase_subject(tippers, "mary", now, withdraw_preferences=True)
        assert receipt.withdrawn_preferences == 1
        assert tippers.preference_manager.preferences_of("mary") == []

    def test_erasure_is_audited(self, tippers, world):
        now = populate(tippers, world)
        erase_subject(tippers, "mary", now)
        records = tippers.audit.records(
            subject_id="mary", predicate=lambda r: r.category == "erasure"
        )
        assert len(records) == 1
        assert "erasure" in records[0].reasons[0]

    def test_unknown_user_rejected(self, tippers):
        with pytest.raises(PolicyError):
            erase_subject(tippers, "ghost", 0.0)

    def test_erasure_idempotent(self, tippers, world):
        now = populate(tippers, world)
        erase_subject(tippers, "mary", now)
        second = erase_subject(tippers, "mary", now + 1)
        assert second.erased_observations == 0
