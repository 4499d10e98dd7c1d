"""Unit tests for the user preference manager."""

import pytest

from repro.core.language.vocabulary import DataCategory, GranularityLevel
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.conflicts import ConflictKind
from repro.errors import PolicyError


def preference(pid="f1", user="mary", **overrides):
    defaults = dict(
        preference_id=pid,
        user_id=user,
        description="d",
        effect=Effect.DENY,
        categories=(DataCategory.LOCATION,),
        phases=(DecisionPhase.SHARING,),
    )
    defaults.update(overrides)
    return UserPreference(**defaults)


class TestSubmission:
    def test_submit_stores_and_reports_conflicts(self, tippers):
        conflicts = tippers.preference_manager.submit(
            catalog.preference_2_no_location("mary")
        )
        kinds = {c.kind for c in conflicts}
        assert ConflictKind.HARD in kinds  # vs mandatory policy-2
        prefs = tippers.preference_manager.preferences_of("mary")
        assert len(prefs) == 1

    def test_unknown_user_rejected(self, tippers):
        with pytest.raises(PolicyError):
            tippers.preference_manager.submit(preference(user="ghost"))

    def test_resubmission_replaces(self, tippers):
        tippers.preference_manager.submit(preference())
        tippers.preference_manager.submit(
            preference(categories=(DataCategory.PRESENCE,))
        )
        prefs = tippers.preference_manager.preferences_of("mary")
        assert len(prefs) == 1
        assert prefs[0].categories == (DataCategory.PRESENCE,)
        assert tippers.preference_manager.count() == 1

    def test_non_conflicting_preference_reports_nothing(self, tippers):
        conflicts = tippers.preference_manager.submit(
            preference(categories=(DataCategory.SOCIAL_TIES,))
        )
        assert conflicts == []

    def test_submit_permission(self, tippers):
        conflicts = tippers.preference_manager.submit_permission(
            catalog.preference_3_concierge_location("mary")
        )
        prefs = tippers.preference_manager.preferences_of("mary")
        assert len(prefs) == 1
        assert prefs[0].effect is Effect.ALLOW


class TestWithdrawal:
    def test_withdraw_single(self, tippers):
        tippers.preference_manager.submit(preference("f1"))
        tippers.preference_manager.submit(preference("f2"))
        tippers.preference_manager.withdraw("mary", "f1")
        remaining = tippers.preference_manager.preferences_of("mary")
        assert [p.preference_id for p in remaining] == ["f2"]
        # The store must reflect the withdrawal too.
        assert len(tippers.store.preferences) == 1

    def test_withdraw_unknown_rejected(self, tippers):
        with pytest.raises(PolicyError):
            tippers.preference_manager.withdraw("mary", "ghost")

    def test_withdraw_all(self, tippers):
        tippers.preference_manager.submit(preference("f1"))
        tippers.preference_manager.submit(preference("f2"))
        assert tippers.preference_manager.withdraw_all("mary") == 2
        assert tippers.preference_manager.preferences_of("mary") == []
        assert tippers.store.preferences == []


class TestSelections:
    def test_apply_selection_generates_preferences(self, tippers):
        conflicts = tippers.preference_manager.apply_selection(
            "mary", {"location": "off"}
        )
        assert conflicts, "opting out conflicts with the mandatory policy"
        prefs = tippers.preference_manager.preferences_of("mary")
        assert len(prefs) == 1
        assert prefs[0].effect is Effect.DENY
        assert tippers.preference_manager.selection_of("mary") == {"location": "off"}

    def test_coarse_selection_caps(self, tippers):
        tippers.preference_manager.apply_selection("mary", {"location": "coarse"})
        prefs = tippers.preference_manager.preferences_of("mary")
        assert prefs[0].granularity_cap is GranularityLevel.COARSE

    def test_invalid_selection_rejected(self, tippers):
        with pytest.raises(PolicyError):
            tippers.preference_manager.apply_selection("mary", {"location": "sometimes"})


class TestIntrospection:
    def test_conflicts_of(self, tippers):
        tippers.preference_manager.submit(catalog.preference_2_no_location("mary"))
        conflicts = tippers.preference_manager.conflicts_of("mary")
        assert conflicts
        assert all(c.preference.user_id == "mary" for c in conflicts)
