"""ABL-3: compiled decision tables vs the interpreter (Section V-C).

The second "optimizing enforcement" technique: service query streams
are highly repetitive (the same service asks about the same users over
and over), so compiling each exact, time-stable decision into a
per-user table row -- invalidated on any rule change and bypassed for
time-sensitive rules -- should push the steady-state decision cost
toward a dictionary lookup.

Expected shape: on a repetitive workload the compiled engine clearly
beats the indexed interpreter, with a high hit rate; on a
never-repeating workload it degrades gracefully to roughly the
interpreter's cost.
"""

import random

from benchmarks.conftest import report
from repro.bench.workloads import build_engine, check_same_decisions, make_requests, mean_us
from repro.core.reasoner.index import PolicyIndex

USERS = 500


def run_ablation():
    interpreter, _ = build_engine(PolicyIndex, USERS)
    compiled, _ = build_engine(PolicyIndex, USERS, compiled=True)
    rng = random.Random(4)

    # Repetitive workload: queries about 20 hot users, repeated.
    hot = make_requests(20, 50, rng)
    repetitive = [hot[rng.randrange(len(hot))] for _ in range(3000)]
    # Cold workload: every request about a different user.
    cold = make_requests(USERS, 3000, rng)

    # Equivalence check on a mixed sample.
    check_same_decisions(
        interpreter, {"compiled engine": compiled}, repetitive[:50] + cold[:50]
    )

    results = {
        "interpreter, repetitive": mean_us(interpreter, repetitive),
        "compiled, repetitive": mean_us(compiled, repetitive),
        "interpreter, cold": mean_us(interpreter, cold),
        "compiled, cold": mean_us(compiled, cold),
    }
    return results, compiled.table_stats()


def test_ablation_compiled_tables(benchmark):
    results, stats = benchmark.pedantic(run_ablation, iterations=1, rounds=1)

    rows = ["%-26s %10.2f us/op" % (name, micros) for name, micros in results.items()]
    rows.append(
        "table: %d hits, %d misses, hit rate %.0f%%"
        % (stats["hits"], stats["misses"], stats["hit_rate"] * 100)
    )
    report("ABL-3: compiled tables at %d users" % USERS, rows)

    assert results["compiled, repetitive"] < results["interpreter, repetitive"] / 2.0, (
        "compiled tables must clearly win on repetitive traffic"
    )
    assert results["compiled, cold"] < results["interpreter, cold"] * 3.0, (
        "compiled tables must degrade gracefully on cold traffic"
    )
    assert stats["hit_rate"] > 0.5
    for name, micros in results.items():
        benchmark.extra_info[name] = round(micros, 2)
