"""Unit tests for the controlled vocabularies."""

import pytest

from repro.core.language.vocabulary import (
    DATA_SENSITIVITY,
    PURPOSE_TAXONOMY,
    DataCategory,
    GranularityLevel,
    Purpose,
    sensitivity_of,
)
from repro.core.policy.base import DecisionPhase, Effect, RequesterKind
from repro.errors import SchemaError


class TestPurpose:
    def test_every_purpose_in_taxonomy(self):
        for purpose in Purpose:
            assert purpose in PURPOSE_TAXONOMY

    def test_taxonomy_sensitivities_in_range(self):
        for info in PURPOSE_TAXONOMY.values():
            assert 0.0 <= info.sensitivity <= 1.0

    def test_from_string(self):
        assert Purpose.from_string("emergency_response") is Purpose.EMERGENCY_RESPONSE

    def test_from_string_unknown(self):
        with pytest.raises(SchemaError):
            Purpose.from_string("world_domination")

    def test_sharing_purposes_marked(self):
        assert PURPOSE_TAXONOMY[Purpose.LAW_ENFORCEMENT].shared_beyond_building
        assert PURPOSE_TAXONOMY[Purpose.MARKETING].shared_beyond_building
        assert not PURPOSE_TAXONOMY[Purpose.COMFORT].shared_beyond_building


class TestDataCategory:
    def test_every_category_has_sensitivity(self):
        for category in DataCategory:
            assert category in DATA_SENSITIVITY

    def test_identity_most_sensitive(self):
        assert DATA_SENSITIVITY[DataCategory.IDENTITY] == max(DATA_SENSITIVITY.values())

    def test_from_string_unknown(self):
        with pytest.raises(SchemaError):
            DataCategory.from_string("favorite_color")


#: Coarsest to finest.
GRANULARITY_ORDER = [
    GranularityLevel.NONE,
    GranularityLevel.AGGREGATE,
    GranularityLevel.BUILDING,
    GranularityLevel.COARSE,
    GranularityLevel.PRECISE,
]


class TestGranularityLevel:
    def test_rank_order(self):
        assert [g.rank for g in GRANULARITY_ORDER] == [0, 1, 2, 3, 4]
        assert sorted(GranularityLevel, key=lambda g: g.rank) == GRANULARITY_ORDER

    def test_at_most(self):
        assert GranularityLevel.COARSE.at_most(GranularityLevel.PRECISE)
        assert not GranularityLevel.PRECISE.at_most(GranularityLevel.COARSE)
        assert GranularityLevel.NONE.at_most(GranularityLevel.NONE)
        for i, low in enumerate(GRANULARITY_ORDER):
            for j, high in enumerate(GRANULARITY_ORDER):
                assert low.at_most(high) is (i <= j)

    def test_minimum(self):
        assert (
            GranularityLevel.minimum(GranularityLevel.PRECISE, GranularityLevel.COARSE)
            is GranularityLevel.COARSE
        )

    def test_from_string_unknown(self):
        with pytest.raises(SchemaError):
            GranularityLevel.from_string("super-fine")


class TestSensitivityOf:
    def test_in_unit_interval(self):
        for category in DataCategory:
            for purpose in Purpose:
                for granularity in GranularityLevel:
                    score = sensitivity_of(category, purpose, granularity)
                    assert 0.0 <= score <= 1.0

    def test_none_granularity_scores_zero(self):
        assert sensitivity_of(DataCategory.IDENTITY, Purpose.MARKETING, GranularityLevel.NONE) == 0.0

    def test_coarser_never_more_sensitive(self):
        for category in DataCategory:
            precise = sensitivity_of(category, Purpose.SECURITY, GranularityLevel.PRECISE)
            coarse = sensitivity_of(category, Purpose.SECURITY, GranularityLevel.COARSE)
            assert coarse <= precise

    def test_marketing_beats_comfort(self):
        marketing = sensitivity_of(DataCategory.LOCATION, Purpose.MARKETING)
        comfort = sensitivity_of(DataCategory.LOCATION, Purpose.COMFORT)
        assert marketing > comfort

    def test_no_purpose_uses_base(self):
        assert sensitivity_of(DataCategory.LOCATION) == pytest.approx(
            DATA_SENSITIVITY[DataCategory.LOCATION]
        )


@pytest.mark.parametrize(
    "vocabulary",
    [Effect, DecisionPhase, RequesterKind, Purpose, DataCategory, GranularityLevel],
)
def test_vocabulary_members_hash_by_identity(vocabulary):
    """Members compare by identity, so they may hash by it: dict probes
    keyed by them (the compiled enforcement table) stay in C."""
    assert vocabulary.__hash__ is object.__hash__
    for member in vocabulary:
        assert hash(member) == object.__hash__(member)
        assert {member: 1}[vocabulary(member.value)] == 1
