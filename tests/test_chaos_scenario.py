"""The chaos scenario: determinism regression, invariants, and the CLI."""

import json

import pytest

from repro.__main__ import main
from repro.faults import named_plans
from repro.simulation.chaos import run_chaos_scenario

SEED = 11
SMALL = dict(seed=SEED, population=5, ticks=3)


@pytest.fixture(scope="module")
def monkey_runs():
    """Two independent monkey runs with identical parameters."""
    return (
        run_chaos_scenario(plan_name="monkey", **SMALL),
        run_chaos_scenario(plan_name="monkey", **SMALL),
    )


class TestChaosDeterminism:
    def test_fault_traces_are_byte_identical(self, monkey_runs):
        first, second = monkey_runs
        assert first.trace_text == second.trace_text
        assert first.trace_text  # the monkey plan actually fired

    def test_decisions_and_audit_are_identical(self, monkey_runs):
        first, second = monkey_runs
        assert first.decisions == second.decisions
        assert first.audit_effects == second.audit_effects
        assert first.to_dict() == second.to_dict()

    def test_different_seed_changes_the_run(self):
        base = run_chaos_scenario(plan_name="monkey", **SMALL)
        other = run_chaos_scenario(
            plan_name="monkey", seed=SEED + 1, population=5, ticks=3
        )
        assert base.trace_text != other.trace_text

    def test_every_named_plan_is_deterministic(self):
        for name in named_plans():
            first = run_chaos_scenario(plan_name=name, **SMALL)
            second = run_chaos_scenario(plan_name=name, **SMALL)
            assert first.trace_text == second.trace_text, name
            assert first.decisions == second.decisions, name


class TestChaosInvariants:
    def test_bus_accounting_identity_survives_chaos(self, monkey_runs):
        report = monkey_runs[0]
        assert report.bus_attempts == report.bus_logical_calls + report.bus_retries
        assert report.bus_corrupted <= report.bus_dropped

    def test_no_allow_for_a_faulted_policy_fetch(self):
        # The engine is non-caching, so each decision performs exactly
        # one policy fetch: every injected fetch fault must surface as a
        # fail-closed deny, for every shipped plan.
        for name in named_plans():
            report = run_chaos_scenario(plan_name=name, **SMALL)
            fetch_faults = report.fault_counts.get("policy_fetch_fail", 0)
            assert report.failclosed == fetch_faults, name

    def test_policy_outage_actually_fails_closed(self):
        report = run_chaos_scenario(plan_name="policy-outage", **SMALL)
        assert report.failclosed > 0
        assert "deny" in report.audit_effects

    def test_datastore_brownout_loses_writes_without_crashing(self):
        report = run_chaos_scenario(plan_name="datastore-brownout", **SMALL)
        clean = run_chaos_scenario(plan_name="lossy", **SMALL)
        assert report.write_failures > 0
        assert report.stored < clean.stored + report.write_failures

    def test_monkey_exercises_every_fault_site(self, monkey_runs):
        counts = monkey_runs[0].fault_counts
        assert counts.get("drop", 0) > 0
        assert counts.get("policy_fetch_fail", 0) > 0
        assert counts.get("store_write_fail", 0) > 0
        assert counts.get("sensor_stall", 0) > 0

    def test_queries_are_conserved(self, monkey_runs):
        report = monkey_runs[0]
        assert report.delivered + report.undelivered == (
            report.population * report.ticks
        )
        assert len(report.decisions) == report.delivered


class TestChaosCLI:
    ARGS = ["chaos", "--seed", str(SEED), "--population", "4", "--ticks", "2"]

    def test_summary_output(self, capsys):
        assert main(self.ARGS + ["--plan", "monkey"]) == 0
        out = capsys.readouterr().out
        assert "chaos run: plan=monkey seed=%d" % SEED in out
        assert "queries: delivered=" in out
        assert "faults fired:" in out

    def test_json_output_is_valid(self, capsys):
        assert main(self.ARGS + ["--plan", "lossy", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plan"] == "lossy"
        assert report["bus"]["attempts"] == (
            report["bus"]["logical_calls"] + report["bus"]["retries"]
        )
        assert report["faults_fired"] == sum(report["fault_counts"].values())

    def test_trace_output(self, capsys):
        assert main(self.ARGS + ["--plan", "monkey", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "== fault trace ==" in out
        assert "step=" in out and "site=" in out

    def test_plan_list(self, capsys):
        assert main(["chaos", "--plan", "list"]) == 0
        out = capsys.readouterr().out
        for name in named_plans():
            assert name in out

    def test_unknown_plan_fails_cleanly(self, capsys):
        assert main(["chaos", "--plan", "volcano"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err
