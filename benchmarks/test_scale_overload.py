"""SCALE-5: overload protection under the rush-hour burst plan.

Runs the overload scenario twice -- once with the admission controller
installed, once without (the ablation baseline) -- and reports the
shed/brownout split by priority class.  This is the load-shedding
counterpart of the resilience benchmarks: the claim is not throughput
but *selectivity* -- under the same burst, the controller sheds only
deferrable and normal traffic while every CRITICAL call (enforcement
decisions, preference submissions, DSAR) still lands, and every
degraded answer is marked in the audit record.
"""

from benchmarks.conftest import report
from repro.bench.workloads import SCALES
from repro.simulation.overload import run_overload_scenario

PLAN = "rush-hour"
SEED = 11
POPULATION = SCALES["full"].overload_population
TICKS = SCALES["full"].overload_ticks


def _rows(label, result):
    return [
        "%s" % label,
        "  critical:   attempted=%d completed=%d shed=%d"
        % (result.critical.attempted, result.critical.completed,
           result.critical.shed),
        "  normal:     attempted=%d completed=%d shed=%d (brownouts=%d)"
        % (result.normal.attempted, result.normal.completed,
           result.normal.shed, result.brownout_marked_responses),
        "  deferrable: attempted=%d completed=%d shed=%d (shed_rate=%.3f)"
        % (result.deferrable.attempted, result.deferrable.completed,
           result.deferrable.shed, result.deferrable.shed_rate),
        "  bus: attempts=%d logical=%d retries=%d shed=%d"
        % (result.bus_attempts, result.bus_logical_calls,
           result.bus_retries, result.bus_shed),
    ]


def test_scale_overload_admission_vs_ablation(benchmark):
    with_admission = benchmark.pedantic(
        run_overload_scenario,
        kwargs=dict(
            plan_name=PLAN,
            seed=SEED,
            population=POPULATION,
            ticks=TICKS,
            admission=True,
        ),
        iterations=1,
        rounds=1,
    )
    baseline = run_overload_scenario(
        plan_name=PLAN,
        seed=SEED,
        population=POPULATION,
        ticks=TICKS,
        admission=False,
    )

    rows = _rows("admission ON", with_admission) + _rows(
        "admission OFF (ablation)", baseline
    )
    rows.append(
        "ledger: checked=%d admitted=%d shed=%d brownouts=%d injected=%d"
        % (with_admission.ledger_checked, with_admission.ledger_admitted,
           with_admission.ledger_shed, with_admission.ledger_brownouts,
           with_admission.injected_arrivals)
    )
    report("SCALE-5: rush-hour overload, admission vs ablation", rows)

    # Both runs must satisfy their own invariants end to end.
    assert with_admission.ok, with_admission.violations
    assert baseline.ok, baseline.violations

    # Selectivity: the controller sheds, but never the critical class.
    assert with_admission.critical.shed == 0
    assert with_admission.critical.completed == with_admission.critical.attempted
    assert with_admission.deferrable.shed_rate > 0.0
    assert with_admission.ledger_shed > 0

    # Privacy-preserving degradation: browned-out answers exist and every
    # one of them is marked in the audit record.
    assert with_admission.brownout_marked_responses > 0
    assert (
        with_admission.brownout_marked_audit
        >= with_admission.brownout_marked_responses
    )

    # The ablation absorbs the same burst with no shedding and no
    # degradation -- the controller, not the workload, makes the choice.
    assert baseline.bus_shed == 0
    assert baseline.brownout_marked_responses == 0
    assert baseline.critical.completed == baseline.critical.attempted

    benchmark.extra_info["shed"] = with_admission.ledger_shed
    benchmark.extra_info["brownouts"] = with_admission.ledger_brownouts
    benchmark.extra_info["deferrable_shed_rate"] = round(
        with_admission.deferrable.shed_rate, 3
    )
