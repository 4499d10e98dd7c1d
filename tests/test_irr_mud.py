"""Unit tests for MUD-based IRR auto-provisioning (Section V-B)."""

from repro.core.language.duration import Duration
from repro.core.policy import catalog
from repro.irr.mud import BUILTIN_PROFILES, advertisement_document, auto_provision
from repro.irr.registry import IoTResourceRegistry
from repro.iota.assistant import practices_from_resource


class TestBuiltinProfiles:
    def test_every_dbh_type_has_a_profile(self):
        expected = {
            "wifi_access_point",
            "bluetooth_beacon",
            "camera",
            "power_meter",
            "temperature_sensor",
            "motion_sensor",
            "hvac_unit",
            "id_card_reader",
        }
        assert set(BUILTIN_PROFILES) == expected

    def test_profiles_yield_valid_documents(self):
        for profile in BUILTIN_PROFILES.values():
            document = advertisement_document(profile, "DBH", "UCI")
            document.to_dict()  # schema-validates

    def test_location_devices_offer_choices(self):
        space = BUILTIN_PROFILES["wifi_access_point"].settings_space()
        assert space is not None
        keys = {c.key for c in space.group("wifi_access_point").choices}
        assert keys == {"precise", "coarse", "none"}

    def test_camera_offers_no_choices(self):
        assert BUILTIN_PROFILES["camera"].settings_space() is None

    def test_documents_are_iota_interpretable(self):
        """The IoTA must be able to derive practices from MUD documents."""
        for profile in BUILTIN_PROFILES.values():
            document = advertisement_document(profile, "DBH", "UCI")
            practices = practices_from_resource(document.resources[0])
            assert practices
            categories = {p.category for p in practices}
            assert profile.primary_category in categories


class TestAutoProvision:
    def test_one_advertisement_per_deployed_type(self, tippers):
        registry = IoTResourceRegistry("irr-mud", tippers.spatial)
        published = auto_provision(registry, tippers)
        deployed = {s.sensor_type for s in tippers.sensor_manager.sensors()}
        assert {a.advertisement_id for a in published} == {
            "mud:%s" % t for t in deployed
        }
        assert len(registry) == len(deployed)

    def test_building_retention_overrides_when_stricter(self, tippers):
        # The fixture's Policy 1 bounds motion sensors at P7D; the
        # built-in motion profile also says P7D, so use wifi: Policy 2
        # says P6M, manufacturer default is P6M -> no override needed,
        # document carries P6M either way.
        registry = IoTResourceRegistry("irr-mud", tippers.spatial)
        auto_provision(registry, tippers)
        ad = next(
            a for a in registry.advertisements()
            if a.advertisement_id == "mud:wifi_access_point"
        )
        retention = ad.resource_document().resources[0].retention
        assert retention == Duration.parse("P6M")

    def test_stricter_building_policy_wins(self, tippers):
        import dataclasses

        tippers.policy_manager.retire("policy-2-emergency")
        strict = dataclasses.replace(
            catalog.policy_2_emergency_location("b"),
            retention=Duration.parse("P7D"),
        )
        tippers.define_policy(strict)
        registry = IoTResourceRegistry("irr-mud", tippers.spatial)
        auto_provision(registry, tippers)
        ad = next(
            a for a in registry.advertisements()
            if a.advertisement_id == "mud:wifi_access_point"
        )
        retention = ad.resource_document().resources[0].retention
        assert retention.total_seconds() == 7 * 86400

    def test_unknown_types_skipped(self, tippers):
        registry = IoTResourceRegistry("irr-mud", tippers.spatial)
        published = auto_provision(registry, tippers, profiles={})
        assert published == []

    def test_settings_attached_for_configurable_devices(self, tippers):
        registry = IoTResourceRegistry("irr-mud", tippers.spatial)
        auto_provision(registry, tippers)
        wifi_ad = next(
            a for a in registry.advertisements()
            if a.advertisement_id == "mud:wifi_access_point"
        )
        assert wifi_ad.settings_document() is not None
        motion_ad = next(
            a for a in registry.advertisements()
            if a.advertisement_id == "mud:motion_sensor"
        )
        assert motion_ad.settings_document() is None

    def test_discoverable_from_rooms(self, tippers):
        registry = IoTResourceRegistry("irr-mud", tippers.spatial)
        auto_provision(registry, tippers)
        found = registry.discover("b-1001")
        assert found, "auto-provisioned ads visible building-wide"
