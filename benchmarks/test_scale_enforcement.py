"""SCALE-1: enforcement cost vs. number of users and policies.

Section V-C: "With large number of users, services, policies, and
preferences the cost of enforcement can be large enough to be
prohibitive in any real setting.  To overcome this challenge, we are
working on techniques for optimizing enforcement."

This benchmark quantifies that claim on our implementation: per-request
decision latency under a naive linear rule scan vs. the bucketed policy
index, as the population grows.  Expected shape: linear cost grows with
the rule count; indexed cost stays nearly flat, so the speedup factor
grows with scale.
"""

import random
import statistics

from benchmarks.conftest import report
from repro.bench.workloads import (
    REPEATS,
    build_engine,
    check_compiled,
    compiled_speedup,
    linear_vs_index,
    make_requests,
)
from repro.core.reasoner.index import LinearRuleStore, PolicyIndex


def test_scale_enforcement_crossover(benchmark):
    """The series the paper's Section V-C predicts: linear scan blows
    up with population, the index stays flat."""
    benchmark.pedantic(_run_crossover, iterations=1, rounds=1)


def _run_crossover():
    rng = random.Random(1)
    rows = ["%8s %8s %14s %14s %9s" % ("users", "rules", "linear us/op", "index us/op", "speedup")]
    speedups = {}
    for users in (10, 100, 1000):
        requests = make_requests(users, 300, rng)
        linear_us, index_us, rules = linear_vs_index(users, requests)
        speedups[users] = linear_us / index_us
        rows.append(
            "%8d %8d %14.1f %14.1f %8.1fx"
            % (users, rules, linear_us, index_us, speedups[users])
        )
    report("SCALE-1: enforcement decision latency (linear vs index)", rows)

    # Shape assertions: the index wins at scale, and its advantage grows.
    assert speedups[1000] > 5.0, "index should dominate at 1000 users"
    assert speedups[1000] > speedups[10], "speedup should grow with scale"


def test_scale_enforcement_compiled_speedup(benchmark):
    """Compiled decision tables must beat the interpreter >= 10x on warm
    rows (the acceptance gate recorded as BENCH_0002)."""
    benchmark.pedantic(_run_compiled_speedup, iterations=1, rounds=1)


def _run_compiled_speedup():
    users, count = 300, 2000
    requests = make_requests(users, count, random.Random(2))
    reference, rules = build_engine(PolicyIndex, users)
    compiled, _ = build_engine(PolicyIndex, users, compiled=True)
    check_compiled(reference, compiled, requests)

    speedup = statistics.median(
        compiled_speedup(reference, compiled, requests) for _ in range(REPEATS)
    )
    stats = compiled.table_stats()
    report(
        "SCALE-1b: compiled decision tables (%d users, %d rules)"
        % (users, rules),
        [
            "speedup:         %.1fx (median of %d attempts)" % (speedup, REPEATS),
            "table: %d rows in %d shards, hit rate %.3f"
            % (stats["rows"], stats["shards"], stats["hit_rate"]),
        ],
    )
    assert speedup >= 10.0, (
        "compiled enforcement must be >= 10x the interpreter on warm rows "
        "(measured %.1fx)" % speedup
    )


def test_scale_enforcement_indexed_benchmark(benchmark):
    """pytest-benchmark datapoint: indexed decision at 1000 users."""
    engine, rules = build_engine(PolicyIndex, 1000)
    requests = make_requests(1000, 1000, random.Random(2))
    iterator = iter(requests * 1000)

    def one_decision():
        engine.decide(next(iterator))

    benchmark(one_decision)
    benchmark.extra_info["rules"] = rules


def test_scale_enforcement_linear_benchmark(benchmark):
    """pytest-benchmark datapoint: linear-scan decision at 1000 users."""
    engine, rules = build_engine(LinearRuleStore, 1000)
    requests = make_requests(1000, 200, random.Random(2))
    iterator = iter(requests * 10000)

    def one_decision():
        engine.decide(next(iterator))

    benchmark(one_decision)
    benchmark.extra_info["rules"] = rules
