"""Unit tests for the multi-day scenario runner."""

import pytest

pytestmark = pytest.mark.slow

from repro.core.reasoner.resolution import ResolutionStrategy
from repro.simulation.longrun import run_week


@pytest.fixture(scope="module")
def result():
    return run_week(days=2, population=12, ticks_per_day=8, seed=9)


class TestRunWeek:
    def test_observations_flow(self, result):
        assert result.observations_sampled > 0
        assert 0 < result.observations_stored < result.observations_sampled

    def test_services_ran(self, result):
        assert result.queries_total > 0
        assert result.deliveries_attempted > 0

    def test_settings_configured_for_everyone(self, result):
        assert sum(result.selections.values()) == result.population

    def test_audit_consistent(self, result):
        assert result.audit_summary["total"] >= result.queries_total

    def test_denial_rate_bounds(self, result):
        assert 0.0 <= result.denial_rate <= 1.0

    def test_deterministic_for_seed(self):
        a = run_week(days=1, population=8, ticks_per_day=6, seed=3)
        b = run_week(days=1, population=8, ticks_per_day=6, seed=3)
        assert a.observations_stored == b.observations_stored
        assert a.selections == b.selections
        assert a.queries_denied == b.queries_denied

    def test_building_wins_denies_nothing(self):
        result = run_week(
            days=1,
            population=10,
            ticks_per_day=6,
            seed=4,
            strategy=ResolutionStrategy.BUILDING_WINS,
        )
        assert result.queries_denied == 0

    def test_cache_does_not_change_outcomes(self, monkeypatch):
        """Compiled decision tables (the default) against the interpreter:
        same report and the same audit trail, record for record."""
        from repro.simulation import longrun

        built = []

        def make_dbh_tippers(**kwargs):
            built.append(real(**kwargs))
            return built[-1]

        real = longrun.make_dbh_tippers
        monkeypatch.setattr(longrun, "make_dbh_tippers", make_dbh_tippers)
        compiled = run_week(days=1, population=8, ticks_per_day=6, seed=5)
        plain = run_week(
            days=1, population=8, ticks_per_day=6, seed=5, compile_decisions=False
        )
        assert built[0].engine.stats.hits > 0, "the compiled run served no rows"
        assert compiled == plain
        assert built[0].audit.records() == built[1].audit.records()
