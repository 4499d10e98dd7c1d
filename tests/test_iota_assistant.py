"""Unit tests for the IoT Assistant (discovery, settings, feedback)."""

import pytest

from repro.core.language.builder import ResourcePolicyBuilder, ServicePolicyBuilder
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.errors import NetworkError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.iota.assistant import (
    IoTAssistant,
    practices_from_resource,
    practices_from_service,
)
from repro.iota.personas import PERSONAS, generate_decisions
from repro.iota.preference_model import DataPractice, PreferenceModel
from repro.irr.registry import IoTResourceRegistry
from repro.net.bus import MessageBus
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def wired(tippers):
    """TIPPERS + IRR on a bus, with the building's policies published."""
    bus = MessageBus()
    bus.register("tippers", tippers)
    registry = IoTResourceRegistry("irr-1", tippers.spatial)
    bus.register("irr-1", registry)
    document = tippers.policy_manager.compile_policy_document()
    settings = tippers.policy_manager.settings_space.to_document()
    registry.publish_resource("building-policies", "b", document, settings=settings)
    return bus, registry, tippers


def make_assistant(bus, persona="fundamentalist", user_id="mary"):
    model = PreferenceModel().fit(
        generate_decisions(PERSONAS[persona], 200, seed=1, noise=0.0)
    )
    return IoTAssistant(
        user_id, bus, model=model, registry_endpoints=["irr-1"]
    )


class TestPracticeExtraction:
    def test_from_figure2_resource(self):
        document = (
            ResourcePolicyBuilder()
            .resource("Location tracking in DBH")
            .at("DBH", "Building")
            .sensor("WiFi Access Point")
            .purpose("emergency response", "stored")
            .observes("MAC address of the device")
            .retain("P6M")
            .build()
        )
        practices = practices_from_resource(document.resources[0])
        assert len(practices) == 1
        assert practices[0].category is DataCategory.LOCATION, "sensor-type fallback"
        assert practices[0].purpose is Purpose.EMERGENCY_RESPONSE
        assert practices[0].retention_days == pytest.approx(180.0)

    def test_inferred_hint_wins(self):
        document = (
            ResourcePolicyBuilder()
            .resource("r")
            .at("B", "Building")
            .sensor("mystery_box")
            .purpose("security")
            .observes("blob", inferred=["identity"])
            .build()
        )
        practices = practices_from_resource(document.resources[0])
        assert practices[0].category is DataCategory.IDENTITY

    def test_category_named_observation(self):
        document = (
            ResourcePolicyBuilder()
            .resource("r")
            .at("B", "Building")
            .sensor("mystery")
            .purpose("security")
            .observes("occupancy")
            .build()
        )
        assert practices_from_resource(document.resources[0])[0].category is DataCategory.OCCUPANCY

    def test_from_service_third_party(self):
        document = (
            ServicePolicyBuilder("food")
            .observes("location")
            .purpose("providing_service")
            .developer("LunchCo", third_party=True)
            .build()
        )
        practices = practices_from_service(document)
        assert practices[0].third_party


class TestDiscovery:
    def test_discovers_building_policies(self, wired):
        bus, _, _ = wired
        assistant = make_assistant(bus)
        result = assistant.discover("b-1001", now=100.0)
        assert result.registry_ids == ["irr-1"]
        assert result.resources, "building resources found"
        assert result.settings, "settings document attached"

    def test_fundamentalist_gets_notifications(self, wired):
        bus, _, _ = wired
        assistant = make_assistant(bus, "fundamentalist")
        result = assistant.discover("b-1001", now=100.0)
        assert result.notifications

    def test_unreachable_registry_skipped(self, wired):
        bus, _, _ = wired
        assistant = make_assistant(bus)
        assistant.registry_endpoints = ["irr-ghost", "irr-1"]
        result = assistant.discover("b-1001", now=100.0)
        assert result.registry_ids == ["irr-1"]

    def test_malformed_advertisement_survived(self, wired):
        bus, registry, _ = wired
        # Inject a raw malformed advertisement.
        registry._advertisements["bad"] = type(registry._advertisements["building-policies"])(
            advertisement_id="bad",
            kind="resource",
            coverage_space_id="b",
            document={"resources": "not-a-list"},
        )
        assistant = make_assistant(bus)
        result = assistant.discover("b-1001", now=100.0)
        assert result.resources, "good advertisements still absorbed"


class TestSettingsConfiguration:
    def test_fundamentalist_opts_out(self, wired):
        bus, _, tippers = wired
        assistant = make_assistant(bus, "fundamentalist")
        selection = assistant.configure_building_settings(now=100.0)
        assert selection == {"location": "off"}
        assert assistant.reported_conflicts, "hard conflict with policy-2 reported"
        prefs = tippers.preference_manager.preferences_of("mary")
        assert len(prefs) == 1

    def test_unconcerned_opts_in(self, wired):
        bus, _, tippers = wired
        assistant = make_assistant(bus, "unconcerned")
        selection = assistant.configure_building_settings(now=100.0)
        assert selection == {"location": "fine"}

    def test_submit_explicit_preference(self, wired):
        bus, _, tippers = wired
        assistant = make_assistant(bus)
        conflicts = assistant.submit_preference(catalog.preference_2_no_location("mary"))
        assert conflicts
        assert tippers.preference_manager.preferences_of("mary")


class TestEffectPreview:
    def test_preview_reports_partial_honouring(self, wired):
        bus, _, tippers = wired
        assistant = make_assistant(bus, "fundamentalist")
        assistant.configure_building_settings(now=100.0)
        lines = assistant.fetch_effect_preview(now=200.0)
        assert any("location/sharing: blocked" in line for line in lines)
        assert any(
            "location/capture: allowed" in line and "overrides" in line
            for line in lines
        ), "the mandatory emergency policy's override must be visible"

    def test_preview_for_permissive_user(self, wired):
        bus, _, _ = wired
        assistant = make_assistant(bus, "unconcerned")
        assistant.configure_building_settings(now=100.0)
        lines = assistant.fetch_effect_preview(now=200.0)
        assert any(
            "location/sharing: allowed at precise" in line for line in lines
        )

    def test_unknown_user_is_rpc_error(self, wired):
        bus, _, _ = wired
        from repro.net.bus import RpcError

        assistant = IoTAssistant("ghost", bus, registry_endpoints=["irr-1"])
        with pytest.raises(RpcError):
            assistant.fetch_effect_preview(now=0.0)


class TestFallbackRetries:
    """An assistant built without a retry policy re-sends twice, at no cost."""

    def make(self, drop_steps):
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics)
        bus.register_handler("tippers", lambda method, payload: {"entries": []})
        FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP, at_steps=drop_steps))
        ).install_bus(bus)
        return bus, IoTAssistant("mary", bus, metrics=metrics)

    def test_answers_on_the_third_attempt(self):
        bus, assistant = self.make((0, 1))
        assert assistant.fetch_effect_preview(now=0.0) == []
        stats = bus.stats
        assert stats.calls == 3
        assert stats.retries == 2
        assert stats.simulated_latency_s == 0.0
        assert stats.calls == stats.logical_calls + stats.retries

    def test_a_third_drop_raises_after_three_attempts(self):
        bus, assistant = self.make((0, 1, 2))
        with pytest.raises(NetworkError) as excinfo:
            assistant.fetch_effect_preview(now=0.0)
        assert excinfo.type is NetworkError  # lost in transit, not remote
        assert bus.stats.calls == 3
        assert bus.stats.dropped == 3
        assert bus.stats.retries == 2


class TestFeedbackLoop:
    def test_record_feedback_updates_model(self, wired):
        bus, _, _ = wired
        assistant = make_assistant(bus, "fundamentalist")
        p = DataPractice(
            category=DataCategory.LOCATION,
            purpose=Purpose.PROVIDING_SERVICE,
            granularity=GranularityLevel.PRECISE,
        )
        before = assistant.model.comfort(p)
        for _ in range(10):
            assistant.record_feedback(p, allowed=True)
        assert assistant.model.comfort(p) > before
