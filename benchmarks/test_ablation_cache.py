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
import time

from benchmarks.conftest import report
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.policy.conditions import EvaluationContext
from repro.core.reasoner.index import PolicyIndex
from repro.spatial.model import build_simple_building

from benchmarks.test_scale_enforcement import build_rules, make_requests

USERS = 500


def engines():
    spatial = build_simple_building("b", 2, 4)
    built = []
    for compiled in (False, True):
        store = PolicyIndex()
        build_rules(store, USERS, random.Random(0))
        built.append(
            EnforcementEngine(
                store=store,
                context=EvaluationContext(spatial=spatial),
                compiled=compiled,
            )
        )
    return built


def measure(engine, requests) -> float:
    start = time.perf_counter()
    for request in requests:
        engine.decide(request)
    return (time.perf_counter() - start) / len(requests) * 1e6


def run_ablation():
    interpreter, compiled = engines()
    rng = random.Random(4)

    # Repetitive workload: queries about 20 hot users, repeated.
    hot = make_requests(20, 50, rng)
    repetitive = [hot[rng.randrange(len(hot))] for _ in range(3000)]
    # Cold workload: every request about a different user.
    cold = make_requests(USERS, 3000, rng)

    # Equivalence check on a mixed sample.
    for request in (repetitive[:50] + cold[:50]):
        assert (
            interpreter.decide(request).resolution
            == compiled.decide(request).resolution
        )

    results = {
        "interpreter, repetitive": measure(interpreter, repetitive),
        "compiled, repetitive": measure(compiled, repetitive),
        "interpreter, cold": measure(interpreter, cold),
        "compiled, cold": measure(compiled, cold),
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
