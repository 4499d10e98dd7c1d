"""ABL-2: which part of the policy index buys the speedup.

DESIGN.md's second ablation: the index has two ingredients, (phase,
category) bucketing of policies and per-user partitioning of
preferences.  This benchmark measures decision latency with

- no index (linear scan of everything),
- policy buckets only (preferences still scanned linearly),
- the full index (buckets + per-user preference partitions).

Expected shape: with realistic populations the preference partition is
the dominant win (preferences outnumber policies by orders of
magnitude), and the full index beats both ablated variants.
"""

import random

from benchmarks.conftest import report
from repro.bench.workloads import build_engine, check_same_decisions, make_requests, mean_us
from repro.core.reasoner.index import LinearRuleStore, PolicyIndex

USERS = 500
REQUESTS = 300


class PolicyBucketsOnly(PolicyIndex):
    """Ablated index: policy buckets, but preferences scanned linearly."""

    def candidate_preferences(self, request):
        if request.subject_id is None:
            return []
        return self.preferences


def run_ablation():
    requests = make_requests(USERS, REQUESTS, random.Random(3))
    engines = {
        "no index (linear)": build_engine(LinearRuleStore, USERS)[0],
        "policy buckets only": build_engine(PolicyBucketsOnly, USERS)[0],
        "full index": build_engine(PolicyIndex, USERS)[0],
    }
    # Equivalence first: every variant must decide like the linear scan.
    variants = dict(engines)
    linear = variants.pop("no index (linear)")
    check_same_decisions(linear, variants, requests[:50])
    return {name: mean_us(engine, requests) for name, engine in engines.items()}


def test_ablation_index_variants(benchmark):
    timings = benchmark.pedantic(run_ablation, iterations=1, rounds=1)

    baseline = timings["no index (linear)"]
    rows = [
        "%-22s %12.1f us/op   speedup %5.1fx" % (name, micros, baseline / micros)
        for name, micros in timings.items()
    ]
    report("ABL-2: index ablation at %d users" % USERS, rows)

    assert timings["full index"] < timings["policy buckets only"], (
        "per-user preference partitioning must contribute"
    )
    assert timings["full index"] < baseline / 3.0, (
        "the full index must clearly beat the linear scan"
    )
    for name, micros in timings.items():
        benchmark.extra_info[name] = round(micros, 2)
