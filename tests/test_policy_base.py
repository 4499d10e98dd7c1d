"""Unit tests for repro.core.policy.base."""

import pytest

from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.errors import PolicyError


def make_request(**overrides) -> DataRequest:
    defaults = dict(
        requester_id="svc",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="r1",
        timestamp=100.0,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


class TestDataRequest:
    def test_empty_requester_rejected(self):
        with pytest.raises(PolicyError):
            make_request(requester_id="")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(PolicyError):
            make_request(timestamp=-1.0)

    def test_is_attributable(self):
        assert make_request().is_attributable
        assert not make_request(subject_id=None).is_attributable

    def test_requests_are_hashable_ignoring_attributes(self):
        # frozen dataclass with a dict field is not hashable; verify the
        # documented workaround (attributes default) doesn't break eq.
        a = make_request()
        b = make_request()
        assert a == b


class TestEnums:
    def test_all_phases_present(self):
        assert {p.value for p in DecisionPhase} == {
            "capture",
            "storage",
            "processing",
            "sharing",
        }

    def test_effects(self):
        assert Effect("allow") is Effect.ALLOW
        assert Effect("deny") is Effect.DENY

    def test_requester_kinds_cover_paper_actors(self):
        values = {k.value for k in RequesterKind}
        assert {"building", "building_service", "third_party_service", "user", "external"} == values
