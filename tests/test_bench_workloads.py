"""The shared scale-benchmark bodies in :mod:`repro.bench.workloads`.

The ``benchmarks/`` suite and the bench trajectory both run these
bodies, so the deterministic parts of their output are pinned here,
where the fast test tier checks them on every change.
"""

import random

import pytest

from repro.bench.workloads import (
    ADVERTISED,
    NOTIFICATION_THRESHOLDS,
    SCALES,
    build_engine,
    check_same_decisions,
    make_requests,
    notification_sweep,
    persona_models,
    run_once,
    run_scale_federate,
)
from repro.core.reasoner.index import PolicyIndex
from repro.errors import BenchError
from repro.sensors.base import Observation


def test_notification_sweep_reproduces_the_scale3_table():
    """EXPERIMENTS.md's SCALE-3 table, threshold by threshold."""
    assert len(ADVERTISED) == 14
    assert NOTIFICATION_THRESHOLDS == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert notification_sweep(persona_models()) == {
        "fundamentalist": [12, 10, 9, 7, 4, 4],
        "pragmatist": [12, 9, 7, 4, 2, 2],
        "unconcerned": [10, 5, 2, 2, 1, 0],
    }


def test_generated_preferences_draw_category_then_effect_then_cap():
    """The rule set SCALE-1, ABL-2 and ABL-3 were measured on."""
    engine, rules = build_engine(PolicyIndex, 2)
    assert rules == 9
    assert [
        (p.preference_id, p.categories[0].value, p.effect.value,
         p.granularity_cap.value)
        for p in engine.store.preferences
    ] == [
        ("user-00000-p0", "energy_use", "deny", "precise"),
        ("user-00000-p1", "occupancy", "deny", "aggregate"),
        ("user-00000-p2", "occupancy", "deny", "building"),
        ("user-00001-p0", "meeting_details", "allow", "none"),
        ("user-00001-p1", "presence", "deny", "coarse"),
        ("user-00001-p2", "location", "deny", "none"),
    ]


def test_a_changed_decision_fails_the_equivalence_check():
    reference, _ = build_engine(PolicyIndex, 20)
    requests = make_requests(20, 50, random.Random(3))
    same, _ = build_engine(PolicyIndex, 20, compiled=True)
    check_same_decisions(reference, {"compiled": same}, requests)

    other, _ = build_engine(PolicyIndex, 0)  # no preferences at all
    with pytest.raises(BenchError, match="fewer rules changed a decision"):
        check_same_decisions(reference, {"fewer rules": other}, requests)


def test_a_workload_counts_the_same_whatever_ran_before_it():
    """Observation ids are process-wide; a workload's WAL bytes must not
    depend on how many observations earlier code created."""
    _, first = run_once(run_scale_federate, SCALES["smoke"])
    Observation.create("s", "wifi_ap", 0.0, "x", {})
    _, second = run_once(run_scale_federate, SCALES["smoke"])
    assert first == second
    assert first["wal_bytes"] > 0
