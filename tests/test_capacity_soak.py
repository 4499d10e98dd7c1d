"""Unit tests for the stepped-population capacity soak harness.

The soak's contract has two halves: (1) same-seed runs serialize
byte-identically (reports carry only deterministic quantities, never
wall clocks), and (2) the default configuration finds a meaningful max
sustainable population -- the 10k step holds, the 100k step breaks the
latency ceiling, and the 1M step additionally breaks the memory
ceiling.
"""

import dataclasses
import json

import pytest

from repro.simulation.longrun import (
    CapacitySoakReport,
    SOAK_POPULATIONS,
    SoakStepReport,
    run_capacity_soak,
    run_week,
)


def _canonical(report) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


@pytest.fixture(scope="module")
def soak():
    return run_capacity_soak(populations=(1000, 10000, 100000), ticks=3)


class TestCapacitySoak:
    def test_every_population_produces_a_step(self, soak):
        assert [step.population for step in soak.steps] == [
            1000, 10000, 100000,
        ]

    def test_active_cohort_is_capped(self, soak):
        for step in soak.steps:
            assert step.active_principals == min(
                step.population, soak.active_cap
            )
            assert step.phantom_per_call == (
                step.population // step.active_principals - 1
            )

    def test_ledger_balances_per_step(self, soak):
        for step in soak.steps:
            assert step.checked == step.admitted + step.shed
            assert step.normal_shed <= step.normal_attempted
            assert step.deferrable_shed <= step.deferrable_attempted

    def test_critical_is_never_shed(self, soak):
        for step in soak.steps:
            assert step.critical_shed == 0

    def test_small_populations_sustain_and_large_do_not(self, soak):
        by_population = {step.population: step for step in soak.steps}
        assert by_population[1000].sustainable
        assert by_population[10000].sustainable
        overloaded = by_population[100000]
        assert not overloaded.sustainable
        assert "latency-ceiling" in overloaded.limits_exceeded
        assert soak.max_sustainable_population == 10000

    def test_durability_and_decisions_ran(self, soak):
        for step in soak.steps:
            assert step.wal_bytes > 0
            assert step.decisions > 0
            assert step.modeled_p99_latency_us > 0.0

    def test_report_round_trips_through_json(self, soak):
        payload = json.loads(json.dumps(soak.to_dict(), sort_keys=True))
        assert payload["max_sustainable_population"] == 10000
        assert len(payload["steps"]) == len(soak.steps)

    def test_report_text_names_the_answer(self, soak):
        assert "max sustainable population: 10000" in soak.report_text()

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            run_capacity_soak(populations=())
        with pytest.raises(ValueError):
            run_capacity_soak(populations=(0,))
        with pytest.raises(ValueError):
            run_capacity_soak(populations=(10,), ticks=0)
        with pytest.raises(ValueError):
            run_capacity_soak(populations=(10,), active_cap=0)


class TestDeterminism:
    def test_same_seed_soaks_are_byte_identical(self):
        a = run_capacity_soak(populations=(500, 5000), ticks=2, seed=23)
        b = run_capacity_soak(populations=(500, 5000), ticks=2, seed=23)
        assert _canonical(a) == _canonical(b)
        assert a.report_text() == b.report_text()

    def test_different_seeds_may_differ_but_stay_valid(self):
        a = run_capacity_soak(populations=(500,), ticks=2, seed=1)
        b = run_capacity_soak(populations=(500,), ticks=2, seed=2)
        for report in (a, b):
            assert report.steps[0].checked > 0

    @pytest.mark.slow
    def test_same_seed_weeks_are_byte_identical(self):
        a = run_week(days=1, population=8, ticks_per_day=6, seed=3)
        b = run_week(days=1, population=8, ticks_per_day=6, seed=3)
        assert _canonical(a) == _canonical(b)

    def test_default_populations_are_stepped(self):
        assert SOAK_POPULATIONS == (1000, 10000, 100000, 1000000)
        assert list(SOAK_POPULATIONS) == sorted(SOAK_POPULATIONS)


class TestCostTable:
    def test_pinned_table_matches_its_source_record(self):
        # The defaults claim to be derived from the committed
        # BENCH_0002; re-derive and compare, so a trajectory rewrite
        # cannot silently diverge from the model.
        import json
        import os

        from repro.bench import list_records
        from repro.simulation.costmodel import (
            COST_TABLE_SOURCE_RECORD_ID,
            DEFAULT_COST_TABLE,
            cost_table_from_record,
        )

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = dict(list_records(root))
        with open(paths[COST_TABLE_SOURCE_RECORD_ID]) as handle:
            record = json.load(handle)
        assert cost_table_from_record(record) == DEFAULT_COST_TABLE

    def test_latency_model_prices_each_component(self):
        from repro.simulation.costmodel import CostTable

        table = CostTable(
            us_per_decision=10.0, us_per_rule=0.5, us_per_queued_call=2.0
        )
        assert table.modeled_p99_latency_us(4, 3) == 18.0
        assert table.modeled_p99_latency_us(0, 0) == 10.0

    def test_memory_model_extrapolates_by_phantom_ratio(self):
        from repro.simulation.costmodel import CostTable

        table = CostTable(
            principal_state_bytes=100, observation_state_bytes=10
        )
        assert table.modeled_state_bytes(
            population=5, wal_bytes=50, stored_observations=3, phantom_ratio=2
        ) == 5 * 100 + 2 * (50 + 3 * 10)

    def test_negative_costs_rejected(self):
        from repro.simulation.costmodel import CostTable

        with pytest.raises(ValueError):
            CostTable(us_per_rule=-0.1)

    def test_soak_accepts_a_custom_table(self):
        from repro.simulation.costmodel import CostTable

        cheap = run_capacity_soak(
            populations=(1000,),
            ticks=2,
            cost_table=CostTable(
                us_per_decision=0.0,
                us_per_rule=0.0,
                us_per_queued_call=0.0,
            ),
        )
        assert cheap.steps[0].modeled_p99_latency_us == 0.0
