"""End-to-end tests for the rush-hour overload scenario and its CLI."""

import json

import pytest

from repro.__main__ import main
from repro.simulation.overload import run_overload_scenario

PLAN, SEED = "rush-hour", 11


@pytest.fixture(scope="module")
def report():
    return run_overload_scenario(plan_name=PLAN, seed=SEED)


class TestInvariants:
    def test_scenario_passes_its_own_invariants(self, report):
        assert report.ok, report.report_text

    def test_critical_is_never_shed(self, report):
        assert report.critical.shed == 0
        assert report.critical.completed == report.critical.attempted

    def test_deferrable_traffic_is_shed_under_load(self, report):
        assert report.deferrable.shed_rate > 0.0
        assert report.ledger_shed_by_class.get("deferrable", 0) > 0

    def test_every_brownout_carries_an_audit_marker(self, report):
        assert report.brownout_marked_responses > 0
        assert report.brownout_marked_audit >= report.brownout_marked_responses

    def test_ledger_identity_holds(self, report):
        assert report.ledger_checked == report.ledger_admitted + report.ledger_shed
        assert report.bus_attempts == report.bus_logical_calls + report.bus_retries

    def test_faults_actually_fired(self, report):
        assert report.injected_arrivals > 0


class TestAblation:
    def test_no_admission_run_sheds_nothing(self):
        bare = run_overload_scenario(plan_name=PLAN, seed=SEED, admission=False)
        assert bare.ok, bare.report_text
        assert bare.bus_shed == 0
        assert bare.ledger_shed == 0
        assert bare.brownout_marked_responses == 0

    def test_admission_sheds_strictly_more_than_ablation(self, report):
        assert report.ledger_shed > 0
        assert report.bus_shed > 0


class TestDeterminism:
    def test_different_seed_diverges(self, report):
        other = run_overload_scenario(plan_name=PLAN, seed=12)
        assert report.report_text != other.report_text


class TestCli:
    def test_overload_exits_zero_and_prints_a_report(self, capsys):
        assert main(["overload", "--plan", PLAN, "--seed", str(SEED)]) == 0
        out = capsys.readouterr().out
        assert "rush-hour" in out
        assert "deferrable" in out

    def test_json_output_parses(self, capsys):
        assert main(["overload", "--seed", str(SEED), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == PLAN
        assert payload["ledger"]["checked"] > 0

    def test_unknown_plan_is_a_hard_error(self, capsys):
        assert main(["overload", "--plan", "no-such-plan"]) == 2
        assert "no-such-plan" in capsys.readouterr().err

    def test_no_admission_flag_runs_the_ablation(self, capsys):
        assert main(["overload", "--seed", str(SEED), "--no-admission"]) == 0
        assert "admission=off" in capsys.readouterr().out

    def test_chaos_list_enumerates_plans(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "rush-hour" in out
        assert "torn-storage" in out
