"""Byte-identity of same-seed ``run_week`` reports.

Two ``run_week`` runs with the same seed must serialize to the same
canonical JSON: reports carry only deterministic quantities, never
wall clocks. This is the one tier-1 test that compares whole reports
rather than a few fields (``tests/test_longrun.py`` checks those).
"""

import dataclasses
import json

import pytest

from repro.simulation.longrun import run_week


def _canonical(report) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


class TestDeterminism:
    @pytest.mark.slow
    def test_same_seed_weeks_are_byte_identical(self):
        a = run_week(days=1, population=8, ticks_per_day=6, seed=3)
        b = run_week(days=1, population=8, ticks_per_day=6, seed=3)
        assert _canonical(a) == _canonical(b)
