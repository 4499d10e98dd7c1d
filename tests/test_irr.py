"""Unit tests for the IoT Resource Registry."""

import pytest

from repro.core.language.builder import ResourcePolicyBuilder, ServicePolicyBuilder
from repro.core.policy.settings import location_settings_space
from repro.errors import RegistryError
from repro.irr.registry import Advertisement, IoTResourceRegistry, discover_registries
from repro.net.bus import MessageBus, RpcError
from repro.spatial.model import build_simple_building


def resource_document(name="Location tracking"):
    return (
        ResourcePolicyBuilder()
        .resource(name)
        .at("Building B", "Building")
        .sensor("wifi_access_point")
        .purpose("emergency_response", "stored continuously")
        .observes("location")
        .retain("P6M")
        .build()
    )


def service_document(service_id="concierge"):
    return (
        ServicePolicyBuilder(service_id)
        .observes("location")
        .purpose("providing_service", "directions")
        .build()
    )


@pytest.fixture
def spatial():
    return build_simple_building("b", 2, 4)


@pytest.fixture
def registry(spatial):
    return IoTResourceRegistry("irr-1", spatial)


class TestPublication:
    def test_publish_resource(self, registry):
        ad = registry.publish_resource("ad-1", "b", resource_document())
        assert len(registry) == 1
        assert ad.resource_document().resources[0].name == "Location tracking"

    def test_publish_service_with_settings(self, registry):
        ad = registry.publish_service(
            "ad-2",
            "b",
            service_document(),
            settings=location_settings_space().to_document(),
        )
        assert ad.settings_document() is not None
        assert ad.service_document().service_id == "concierge"

    def test_duplicate_id_rejected(self, registry):
        registry.publish_resource("ad-1", "b", resource_document())
        with pytest.raises(RegistryError):
            registry.publish_resource("ad-1", "b", resource_document())

    def test_unknown_coverage_space_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.publish_resource("ad-1", "atlantis", resource_document())

    def test_withdraw(self, registry):
        registry.publish_resource("ad-1", "b", resource_document())
        registry.withdraw("ad-1")
        assert len(registry) == 0
        with pytest.raises(RegistryError):
            registry.withdraw("ad-1")

    def test_wrong_kind_accessors(self, registry):
        ad = registry.publish_resource("ad-1", "b", resource_document())
        with pytest.raises(RegistryError):
            ad.service_document()

    def test_bad_kind_rejected(self):
        with pytest.raises(RegistryError):
            Advertisement("x", "weird", "b", {})


class TestDiscovery:
    def test_building_ad_visible_from_any_room(self, registry):
        registry.publish_resource("ad-1", "b", resource_document())
        found = registry.discover("b-1001")
        assert [a.advertisement_id for a in found] == ["ad-1"]

    def test_room_ad_visible_from_that_room_only(self, registry):
        registry.publish_resource("ad-1", "b-1001", resource_document())
        assert registry.discover("b-1001")
        assert registry.discover("b-2003") == []

    def test_neighboring_room_sees_ad(self, registry, spatial):
        from repro.spatial.model import SpaceType

        registry.publish_resource("ad-1", "b-1001", resource_document())
        # Find an actual neighbor of b-1001 in the generated layout.
        neighbors = [
            s.space_id
            for s in spatial.spaces_of_type(SpaceType.ROOM)
            if spatial.neighboring("b-1001", s.space_id)
        ]
        assert neighbors, "layout should give b-1001 at least one neighbor"
        assert registry.discover(neighbors[0])

    def test_unknown_space_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.discover("atlantis")

    def test_discover_registries_helper(self, registry, spatial):
        other = IoTResourceRegistry("irr-2", spatial)
        other.publish_service("ad-s", "b", service_document())
        registry.publish_resource("ad-r", "b", resource_document())
        results = discover_registries([registry, other], "b-1001")
        assert set(results) == {"irr-1", "irr-2"}

    def test_discover_registries_skips_empty(self, registry, spatial):
        empty = IoTResourceRegistry("irr-empty", spatial)
        registry.publish_resource("ad-r", "b", resource_document())
        results = discover_registries([registry, empty], "b-1001")
        assert set(results) == {"irr-1"}


class TestBusEndpoint:
    def test_discover_over_wire(self, registry):
        registry.publish_resource("ad-1", "b", resource_document())
        bus = MessageBus()
        bus.register("irr-1", registry)
        response = bus.call("irr-1", "discover", {"space_id": "b-1001"})
        assert response["registry_id"] == "irr-1"
        assert response["advertisements"][0]["kind"] == "resource"

    def test_missing_space_id_is_error(self, registry):
        bus = MessageBus()
        bus.register("irr-1", registry)
        with pytest.raises(RpcError):
            bus.call("irr-1", "discover", {})

    def test_unknown_method(self, registry):
        bus = MessageBus()
        bus.register("irr-1", registry)
        with pytest.raises(RpcError):
            bus.call("irr-1", "explode", {})
