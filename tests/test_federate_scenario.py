"""End-to-end tests for the sharded-campus federation scenario and CLI."""

import json

import pytest

from repro.__main__ import main
from repro.simulation.federate import (
    DEFAULT_BUILDINGS,
    run_federate_scenario,
)

PLAN, SEED = "campus-storm", 17


@pytest.fixture(scope="module")
def report():
    return run_federate_scenario(plan_name=PLAN, seed=SEED)


class TestInvariants:
    def test_scenario_passes_its_own_invariants(self, report):
        assert report.ok, report.report_text

    def test_the_campus_is_fully_sharded(self, report):
        assert report.buildings == sorted(DEFAULT_BUILDINGS)
        assert sum(report.residents_by_building.values()) == report.population
        # Every shard stored observations of its own.
        assert set(report.stored_by_building) == set(report.buildings)

    def test_roaming_handoffs_happen_and_resume(self, report):
        assert report.handoffs > 0
        assert report.returns > 0
        assert report.reentries > 0

    def test_every_visited_shard_decision_is_roaming_marked(self, report):
        assert report.visited_shard_responses > 0
        assert report.roaming_marked_responses == report.visited_shard_responses
        assert report.roaming_marked_audit >= report.roaming_marked_responses

    def test_critical_never_shed_but_deferrable_is(self, report):
        assert report.critical.shed == 0
        assert report.critical.completed == (
            report.critical.attempted - report.critical_dark
        )
        assert report.deferrable.shed > 0

    def test_the_storm_crashes_and_recovers_a_shard(self, report):
        assert report.crashed
        assert report.crash_building in report.buildings
        assert report.recovered
        assert report.recovery is not None
        assert report.recovery.frames_replayed > 0

    def test_the_dsar_spans_shards_and_sticks(self, report):
        assert report.dsar_subject
        assert len(report.dsar_buildings) >= 2
        assert report.dsar_erased > 0
        assert report.dsar_compacted == report.dsar_buildings
        # The end-of-run physical sweep re-opens every shard directory
        # with the standalone reader: the erased subject must be gone.
        assert report.swept_shards == len(report.buildings)
        assert report.resurrected == 0

    def test_ledger_identity_holds(self, report):
        assert report.ledger_checked == (
            report.ledger_admitted + report.ledger_shed
        )
        assert report.bus_attempts == (
            report.bus_logical_calls + report.bus_retries
        )


class TestDeterminism:
    def test_another_seed_also_satisfies_the_invariants(self):
        other = run_federate_scenario(plan_name=PLAN, seed=23)
        assert other.ok, other.report_text

    def test_rejects_an_unknown_plan(self):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            run_federate_scenario(plan_name="no-such-plan", seed=SEED)


class TestCli:
    def test_federate_text_report(self, capsys):
        assert main(["federate", "--plan", PLAN, "--seed", str(SEED)]) == 0
        out = capsys.readouterr().out
        assert "federate run: plan=campus-storm seed=17" in out
        assert "result: OK" in out

    def test_federate_json(self, capsys):
        assert main(
            ["federate", "--plan", PLAN, "--seed", str(SEED), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["plan"] == PLAN

    def test_federate_rejects_unknown_plan(self, capsys):
        assert main(["federate", "--plan", "no-such-plan"]) == 2
        assert "error" in capsys.readouterr().err
