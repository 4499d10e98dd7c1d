"""SCALE-4: a simulated week of the whole framework (soak test).

Runs eight simulated days of the full stack -- capture with enforcement,
per-persona IoTA configuration, comfort-control actuation, Concierge
and food-delivery traffic, nightly retention sweeps -- and reports the
system-level totals.

Expected shape: capture enforcement drops a large share of samples
(streams no policy authorizes, plus opted-out users); the per-persona
settings split matches the Westin mix (most users opt in, the
fundamentalist minority opts out); retention purges begin once the
7-day motion-sensor bound is crossed; and some noon service queries are
denied -- exactly the opted-out fraction.
"""

from benchmarks.conftest import report
from repro.bench.workloads import SCALES
from repro.simulation.longrun import run_week

DAYS = SCALES["full"].week_days
POPULATION = SCALES["full"].week_population
TICKS_PER_DAY = SCALES["full"].week_ticks_per_day


def test_scale_week_soak(benchmark):
    result = benchmark.pedantic(
        run_week,
        kwargs=dict(
            days=DAYS,
            population=POPULATION,
            ticks_per_day=TICKS_PER_DAY,
            seed=9,
        ),
        iterations=1,
        rounds=1,
    )

    rows = [
        "simulated days:            %d (x%d capture sweeps)" % (DAYS, TICKS_PER_DAY),
        "population:                %d" % POPULATION,
        "observations sampled:      %d" % result.observations_sampled,
        "observations stored:       %d (%.0f%% of sampled)"
        % (
            result.observations_stored,
            100.0 * result.observations_stored / max(1, result.observations_sampled),
        ),
        "observations purged:       %d (retention sweeps)" % result.observations_purged,
        "service queries:           %d (%.0f%% denied)"
        % (result.queries_total, 100.0 * result.denial_rate),
        "lunch deliveries:          %d of %d attempted"
        % (result.deliveries_made, result.deliveries_attempted),
        "HVAC actuations:           %d" % result.hvac_actuations,
        "IoTA location selections:  %s" % dict(sorted(result.selections.items())),
        "audit totals:              %s" % result.audit_summary,
    ]
    report("SCALE-4: week-in-the-life soak run", rows)

    # Shape assertions.
    assert result.observations_sampled > 0
    assert result.observations_stored < result.observations_sampled, (
        "capture enforcement must drop unauthorized streams"
    )
    assert result.observations_purged > 0, (
        "the 7-day retention bound must purge by day 8"
    )
    assert result.selections.get("off", 0) > 0, (
        "some fundamentalists must opt out"
    )
    assert result.selections.get("fine", 0) > result.selections.get("off", 0), (
        "Westin mix: opt-ins outnumber opt-outs"
    )
    assert result.hvac_actuations > 0
    assert result.audit_summary["total"] > 0

    benchmark.extra_info["stored"] = result.observations_stored
    benchmark.extra_info["purged"] = result.observations_purged
    benchmark.extra_info["selections"] = result.selections
