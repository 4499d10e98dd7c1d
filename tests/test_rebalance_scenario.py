"""End-to-end tests for the elastic-membership rebalance scenario.

The scenario's own machine-checked invariants are the primary gate
(``report.ok``); the tests here additionally pin the *shape* of the run
-- both fault windows fired exactly once, the journal-guided resumption
actually took the committed path, every forwarded decision is marked
and matched one-for-one by its audit record.  The report's bytes at the
pinned seed are held by ``tests/golden`` (see test_golden_reports.py).
"""

import json

import pytest

from repro.__main__ import main
from repro.simulation.rebalance import run_rebalance_scenario

PLAN, SEED = "ring-change", 23


@pytest.fixture(scope="module")
def report():
    return run_rebalance_scenario(plan_name=PLAN, seed=SEED)


class TestInvariants:
    def test_scenario_passes_its_own_invariants(self, report):
        assert report.ok, report.report_text

    def test_both_fault_windows_fired_exactly_once(self, report):
        assert report.fault_counts.get("cutover_partition") == 1
        assert report.fault_counts.get("crash_mid_migration") == 1

    def test_the_ring_changed_twice_and_membership_settled(self, report):
        assert report.ring_version == 3
        assert report.decommissioned == [report.drained_building]
        assert report.drained_building not in report.final_residents_by_building
        assert report.new_building in report.final_residents_by_building
        # No user was lost or duplicated by the moves.
        assert (
            sum(report.final_residents_by_building.values())
            == report.population
        )

    def test_migrations_converge_with_a_journal_resumption(self, report):
        stats = report.migration_stats
        assert stats["planned"] == report.wave1_planned + report.wave2_planned
        assert (
            stats["completed"] + stats["already_finalized"]
            == stats["planned"]
        )
        assert report.pending_remaining == 0
        assert stats["crashes"] == 1
        assert stats["partitioned"] == 1
        # Both interrupted migrations resumed through the replayed WAL
        # journal (dest had ``committed``), not by re-copying.
        assert stats["resumed_committed"] == 2
        assert report.observations_moved > 0
        assert report.preferences_moved > 0

    def test_the_crash_recovers_through_the_wal(self, report):
        assert report.crashed and report.recovered
        assert report.crash_building == report.new_building
        assert report.recovery is not None
        assert report.recovery.frames_replayed > 0
        assert report.journal_entries >= 2

    def test_forwarded_decisions_are_marked_and_ledgered(self, report):
        assert report.forwarded_responses > 0
        assert report.unmarked_responses == 0
        assert report.marked_responses == report.forwarded_responses
        # Zero lost, zero duplicated: each marked response has exactly
        # one marked audit record.
        assert report.marked_audit == report.marked_responses

    def test_dark_destination_is_fail_closed(self, report):
        assert report.failclosed_probes > 0
        assert report.failclosed_denied == report.failclosed_probes
        assert report.failclosed_allows == 0

    def test_the_dsar_lands_mid_migration_and_sticks(self, report):
        assert report.dsar_mid_flight
        assert len(report.dsar_buildings) >= 2
        assert report.dsar_erased > 0
        # The physical sweep re-opened every shard directory (the
        # decommissioned building's included) with the standalone
        # reader: no observation and no journaled migration snapshot
        # may still hold the erased subject.
        assert report.swept_shards == len(report.buildings) + 1
        assert report.resurrected == 0
        assert report.journal_snapshots_with_subject == 0

    def test_decommissioning_is_complete(self, report):
        assert report.unknown_probes > 0
        assert report.unknown_rejections >= report.unknown_probes
        assert report.breaker_entries_left == 0

    def test_critical_is_never_shed(self, report):
        assert report.critical.shed == 0
        assert report.critical.failed == 0
        assert report.critical.completed == report.critical.attempted

    def test_ledger_identity_holds(self, report):
        assert report.ledger_checked == (
            report.ledger_admitted + report.ledger_shed
        )
        assert report.bus_attempts == (
            report.bus_logical_calls + report.bus_retries
        )


class TestDeterminism:
    def test_another_seed_also_satisfies_the_invariants(self):
        other = run_rebalance_scenario(plan_name=PLAN, seed=5)
        assert other.ok, other.report_text

    def test_rejects_an_unknown_plan(self):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            run_rebalance_scenario(plan_name="no-such-plan", seed=SEED)


class TestCli:
    def test_rebalance_text_report(self, capsys):
        assert main(["rebalance", "--plan", PLAN, "--seed", str(SEED)]) == 0
        out = capsys.readouterr().out
        assert "rebalance run: plan=ring-change seed=23" in out
        assert "result: OK" in out

    def test_rebalance_json(self, capsys):
        assert main(
            ["rebalance", "--plan", PLAN, "--seed", str(SEED), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["plan"] == PLAN
        assert payload["crash"]["recovered"] is True

    def test_rebalance_rejects_unknown_plan(self, capsys):
        assert main(["rebalance", "--plan", "no-such-plan"]) == 2
        assert "error" in capsys.readouterr().err
