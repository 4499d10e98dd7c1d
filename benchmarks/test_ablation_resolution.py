"""ABL-1: the utility/privacy trade-off of resolution strategies.

DESIGN.md calls the resolution strategy the framework's central design
choice: how to settle a disagreement between the building and a user
(Section III-B).  This ablation runs the same mixed query workload
under all three strategies and reports

- utility: the fraction of service queries answered (possibly coarsened),
- privacy: the fraction of user objections that were honoured,
- overrides: decisions where a user's stated preference was overruled.

Expected shape: BUILDING_WINS maximizes utility and honours no
objections; USER_WINS honours all of them at the lowest utility;
NEGOTIATE sits between, overriding only for mandatory policies.
"""

import random

from benchmarks.conftest import report
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.spatial.model import build_simple_building

USERS = 60
QUERIES = 400


def build_engine(strategy: ResolutionStrategy):
    spatial = build_simple_building("b", 3, 6)
    engine = EnforcementEngine(
        context=EvaluationContext(spatial=spatial), strategy=strategy
    )
    engine.store.add_policy(catalog.policy_2_emergency_location("b"))
    engine.store.add_policy(catalog.policy_service_sharing("b"))
    rng = random.Random(0)
    objectors = set()
    for index in range(USERS):
        user_id = "user-%03d" % index
        roll = rng.random()
        if roll < 0.3:
            # Hard opt-out of location sharing.
            engine.store.add_preference(
                UserPreference(
                    preference_id="optout-%s" % user_id,
                    user_id=user_id,
                    description="no location",
                    effect=Effect.DENY,
                    categories=(DataCategory.LOCATION,),
                    phases=(DecisionPhase.SHARING,),
                )
            )
            objectors.add(user_id)
        elif roll < 0.55:
            engine.store.add_preference(
                UserPreference(
                    preference_id="cap-%s" % user_id,
                    user_id=user_id,
                    description="coarse only",
                    effect=Effect.ALLOW,
                    categories=(DataCategory.LOCATION,),
                    phases=(DecisionPhase.SHARING,),
                    granularity_cap=GranularityLevel.COARSE,
                )
            )
    return engine, objectors


def workload():
    rng = random.Random(1)
    return [
        DataRequest(
            requester_id="concierge",
            requester_kind=RequesterKind.BUILDING_SERVICE,
            phase=DecisionPhase.SHARING,
            category=DataCategory.LOCATION,
            subject_id="user-%03d" % rng.randrange(USERS),
            space_id="b-1001",
            timestamp=float(rng.randrange(86400)),
            purpose=Purpose.PROVIDING_SERVICE,
        )
        for _ in range(QUERIES)
    ]


def evaluate(strategy: ResolutionStrategy) -> dict:
    engine, objectors = build_engine(strategy)
    allowed = 0
    coarsened = 0
    objections = 0
    honoured = 0
    overridden = 0
    for request in workload():
        decision = engine.decide(request)
        objected = request.subject_id in objectors
        if objected:
            objections += 1
        if decision.allowed:
            allowed += 1
            if decision.granularity is not GranularityLevel.PRECISE:
                coarsened += 1
            if objected:
                overridden += 1
        elif objected:
            honoured += 1
    return {
        "utility": allowed / QUERIES,
        "coarsened": coarsened / QUERIES,
        "privacy": honoured / objections if objections else 1.0,
        "overridden": overridden,
    }


def test_ablation_resolution_strategies(benchmark):
    results = benchmark.pedantic(
        lambda: {s: evaluate(s) for s in ResolutionStrategy},
        iterations=1,
        rounds=1,
    )

    rows = [
        "%-16s %9s %11s %9s %11s"
        % ("strategy", "utility", "coarsened", "privacy", "overridden")
    ]
    for strategy, metrics in results.items():
        rows.append(
            "%-16s %8.0f%% %10.0f%% %8.0f%% %11d"
            % (
                strategy.value,
                metrics["utility"] * 100,
                metrics["coarsened"] * 100,
                metrics["privacy"] * 100,
                metrics["overridden"],
            )
        )
    report("ABL-1: resolution strategy utility/privacy trade-off", rows)

    building = results[ResolutionStrategy.BUILDING_WINS]
    user = results[ResolutionStrategy.USER_WINS]
    negotiate = results[ResolutionStrategy.NEGOTIATE]

    # Who wins, by what shape:
    assert building["utility"] >= negotiate["utility"] >= user["utility"]
    assert user["privacy"] == 1.0, "user-wins honours every objection"
    assert building["privacy"] == 0.0, "building-wins honours none"
    assert negotiate["privacy"] == 1.0, (
        "sharing opt-outs are non-mandatory, so negotiate honours them all"
    )
    assert negotiate["coarsened"] > building["coarsened"], (
        "negotiate degrades granularity for capped users"
    )
    for strategy, metrics in results.items():
        benchmark.extra_info[strategy.value] = metrics
