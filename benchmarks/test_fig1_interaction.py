"""FIG-1: the ten-step interaction of the paper's Figure 1.

Regenerates the full interaction between building admin, TIPPERS,
sensors, IRR, IoTA, and a service on the synthetic DBH, reports
per-step latencies, and verifies the paper's walked-through outcome:
the step-10 query is rejected once Mary's IoTA opts her out.
"""

from benchmarks.conftest import report
from repro.simulation.scenario import run_figure1_scenario


def test_fig1_interaction_benchmark(benchmark):
    result = benchmark.pedantic(
        run_figure1_scenario,
        kwargs=dict(population=20, mary_persona="fundamentalist", capture_ticks=5),
        iterations=1,
        rounds=3,
    )

    rows = [
        "step %2d  %-48s %8.2f ms" % (step, title, elapsed * 1000.0)
        for step, title, elapsed, _ in result.as_rows()
    ]
    rows.append("notifications shown to Mary: %d" % result.notifications)
    rows.append("conflicts reported:          %d" % len(result.conflicts))
    rows.append(
        "service query before opt-out: %s"
        % ("ALLOWED" if result.location_allowed_before_optout else "DENIED")
    )
    rows.append(
        "service query after opt-out:  %s"
        % ("ALLOWED" if result.location_allowed_after_optout else "DENIED")
    )
    report("FIG-1: Figure 1 interaction (per-step latency)", rows)

    # The paper's walked-through outcome (Section II-C).
    assert result.location_allowed_before_optout is True
    assert result.location_allowed_after_optout is False
    assert result.notifications > 0
    assert any("hard conflict" in c for c in result.conflicts)

    benchmark.extra_info["notifications"] = result.notifications
    benchmark.extra_info["conflicts"] = len(result.conflicts)
    benchmark.extra_info["observations_stored"] = result.observations_stored
