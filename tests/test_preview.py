"""Unit tests for the effect preview."""

import pytest

from repro.core.language.vocabulary import DataCategory, GranularityLevel
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import PolicyError
from repro.net.bus import MessageBus
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.tippers.bms import TIPPERS
from repro.tippers.preview import preview_effects


class TestPreview:
    def test_no_preferences_reflects_policies(self, tippers):
        preview = preview_effects(tippers.engine, "mary", "b-1001", 43200.0)
        capture = preview.entry(DataCategory.LOCATION, DecisionPhase.CAPTURE)
        assert capture.effect is Effect.ALLOW, "emergency policy authorizes capture"
        sharing = preview.entry(DataCategory.LOCATION, DecisionPhase.SHARING)
        assert sharing.effect is Effect.ALLOW, "service-sharing policy authorizes"
        ties = preview.entry(DataCategory.SOCIAL_TIES, DecisionPhase.SHARING)
        assert ties.effect is Effect.DENY, "nothing authorizes social ties"

    def test_optout_shows_partial_honouring(self, tippers):
        """The paper's 'partially met' case: capture continues under the
        mandatory policy (flagged as overridden), sharing is blocked."""
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        preview = preview_effects(tippers.engine, "mary", "b-1001", 43200.0)
        capture = preview.entry(DataCategory.LOCATION, DecisionPhase.CAPTURE)
        assert capture.effect is Effect.ALLOW
        assert capture.overridden, "mandatory emergency policy prevails"
        sharing = preview.entry(DataCategory.LOCATION, DecisionPhase.SHARING)
        assert sharing.effect is Effect.DENY
        assert not sharing.overridden

    def test_overridden_and_blocked_views(self, tippers):
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        preview = preview_effects(tippers.engine, "mary", "b-1001", 43200.0)
        assert any(
            e.category is DataCategory.LOCATION for e in preview.overridden_entries()
        )
        assert any(
            e.category is DataCategory.LOCATION and e.phase is DecisionPhase.SHARING
            for e in preview.blocked_entries()
        )

    def test_preview_is_user_specific(self, tippers):
        tippers.submit_preference(catalog.preference_2_no_location("mary"))
        mary = preview_effects(tippers.engine, "mary", "b-1001", 43200.0)
        bob = preview_effects(tippers.engine, "bob", "b-1002", 43200.0)
        assert mary.entry(DataCategory.LOCATION, DecisionPhase.SHARING).effect is Effect.DENY
        assert bob.entry(DataCategory.LOCATION, DecisionPhase.SHARING).effect is Effect.ALLOW

    def test_preview_does_not_pollute_audit(self, small_building, mary):
        """A preview audits and counts nothing, in the building's own
        registry or the process-wide one."""
        registry = MetricsRegistry()
        tippers = TIPPERS(small_building, "b", owner_name="UCI", metrics=registry)
        tippers.define_policy(catalog.policy_service_sharing("b"))
        tippers.add_user(mary)
        bus = MessageBus(metrics=MetricsRegistry())
        bus.register("tippers", tippers)
        before = len(tippers.audit)
        own, process_wide = registry.snapshot(), get_registry().snapshot()
        preview_effects(tippers.engine, "mary", "b-1001", 43200.0)
        for _ in range(3):
            bus.call("tippers", "preview_effects", {"user_id": "mary", "now": 1.0})
        assert len(tippers.audit) == before
        assert registry.snapshot() == own
        assert get_registry().snapshot() == process_wide

    def test_granularity_cap_visible(self, tippers):
        from repro.core.policy.preference import UserPreference

        tippers.submit_preference(
            UserPreference(
                preference_id="cap",
                user_id="mary",
                description="coarse sharing",
                effect=Effect.ALLOW,
                categories=(DataCategory.LOCATION,),
                phases=(DecisionPhase.SHARING,),
                granularity_cap=GranularityLevel.COARSE,
            )
        )
        preview = preview_effects(tippers.engine, "mary", "b-1001", 43200.0)
        sharing = preview.entry(DataCategory.LOCATION, DecisionPhase.SHARING)
        assert sharing.effect is Effect.ALLOW
        assert sharing.granularity is GranularityLevel.COARSE

    def test_summary_lines_render(self, tippers):
        preview = preview_effects(tippers.engine, "mary", "b-1001", 43200.0)
        lines = preview.summary_lines()
        assert len(lines) == len(preview.entries)
        assert any("location/sharing" in line for line in lines)

    def test_empty_user_rejected(self, tippers):
        with pytest.raises(PolicyError):
            preview_effects(tippers.engine, "", "b-1001", 0.0)

    def test_unknown_cell_raises(self, tippers):
        preview = preview_effects(
            tippers.engine, "mary", "b-1001", 0.0,
            categories=(DataCategory.LOCATION,),
        )
        with pytest.raises(KeyError):
            preview.entry(DataCategory.ENERGY_USE, DecisionPhase.SHARING)
