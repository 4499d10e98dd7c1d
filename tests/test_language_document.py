"""Unit tests for the typed policy documents (Figures 2-4)."""

import pytest

from repro.core.language.document import (
    ObservationDescription,
    ResourceDescription,
    ResourcePolicyDocument,
    ServicePolicyDocument,
    SettingOptionDescription,
    SettingsDocument,
)
from repro.core.language.duration import Duration
from repro.core.language.vocabulary import GranularityLevel, Purpose
from repro.errors import SchemaError


def figure2_resource() -> ResourceDescription:
    return ResourceDescription(
        name="Location tracking in DBH",
        spatial_name="Donald Bren Hall",
        spatial_type="Building",
        owner_name="UCI",
        owner_more_info="https://uci.edu",
        sensor_type="WiFi Access Point",
        sensor_description="Installed inside the building and covers rooms and corridors",
        purposes={"emergency response": "Location is stored continuously"},
        observations=(
            ObservationDescription(
                name="MAC address of the device",
                description="If your device is connected to a WiFi Access Point in "
                "DBH, its MAC address is stored",
            ),
        ),
        retention=Duration.parse("P6M"),
    )


class TestResourcePolicyDocument:
    def test_matches_figure2_structure(self):
        data = ResourcePolicyDocument([figure2_resource()]).to_dict()
        resource = data["resources"][0]
        assert resource["info"] == {"name": "Location tracking in DBH"}
        assert resource["context"]["location"]["spatial"] == {
            "name": "Donald Bren Hall",
            "type": "Building",
        }
        assert resource["context"]["location"]["location_owner"]["name"] == "UCI"
        assert resource["sensor"]["type"] == "WiFi Access Point"
        assert "emergency response" in resource["purpose"]
        assert resource["retention"] == {"duration": "P6M"}

    def test_json_round_trip(self):
        document = ResourcePolicyDocument([figure2_resource()])
        restored = ResourcePolicyDocument.from_json(document.to_json())
        assert restored == document

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError):
            ResourcePolicyDocument.from_json("{not json")

    def test_empty_resources_rejected(self):
        with pytest.raises(SchemaError):
            ResourcePolicyDocument([])

    def test_resource_without_purposes_rejected(self):
        with pytest.raises(SchemaError):
            ResourceDescription(
                name="x",
                spatial_name="B",
                spatial_type="Building",
                sensor_type="t",
                purposes={},
                observations=(ObservationDescription(name="o"),),
            )

    def test_resource_without_observations_rejected(self):
        with pytest.raises(SchemaError):
            ResourceDescription(
                name="x",
                spatial_name="B",
                spatial_type="Building",
                sensor_type="t",
                purposes={"security": "d"},
                observations=(),
            )

    def test_named_purposes_normalizes_spaces(self):
        assert figure2_resource().named_purposes() == [Purpose.EMERGENCY_RESPONSE]

    def test_named_purposes_skips_unknown(self):
        resource = ResourceDescription(
            name="x",
            spatial_name="B",
            spatial_type="Building",
            sensor_type="t",
            purposes={"frobnicating": "d"},
            observations=(ObservationDescription(name="o"),),
        )
        assert resource.named_purposes() == []

    def test_string_purpose_value_parsed(self):
        data = ResourcePolicyDocument([figure2_resource()]).to_dict()
        data["resources"][0]["purpose"]["emergency response"] = "plain string"
        restored = ResourcePolicyDocument.from_dict(data)
        assert restored.resources[0].purposes["emergency response"] == "plain string"


class TestServicePolicyDocument:
    def figure3(self) -> ServicePolicyDocument:
        return ServicePolicyDocument(
            service_id="Concierge",
            observations=[
                ObservationDescription(
                    name="wifi_access_point",
                    description="Whenever one of your devices connects to the DBH "
                    "WiFi its MAC address is stored",
                ),
                ObservationDescription(
                    name="bluetooth_beacon",
                    description="When you have Concierge installed and your "
                    "bluetooth senses a beacon, the room you are in is stored",
                ),
            ],
            purposes={
                "providing_service": "Your location data is used to give you "
                "directions around the Bren Hall."
            },
        )

    def test_matches_figure3_structure(self):
        data = self.figure3().to_dict()
        assert data["purpose"]["service_id"] == "Concierge"
        assert [o["name"] for o in data["observations"]] == [
            "wifi_access_point",
            "bluetooth_beacon",
        ]

    def test_round_trip(self):
        document = self.figure3()
        assert ServicePolicyDocument.from_json(document.to_json()) == document

    def test_requires_service_id(self):
        with pytest.raises(SchemaError):
            ServicePolicyDocument(
                service_id="",
                observations=[ObservationDescription(name="x")],
                purposes={"providing_service": "d"},
            )

    def test_developer_block_round_trips(self):
        document = ServicePolicyDocument(
            service_id="food",
            observations=[ObservationDescription(name="location")],
            purposes={"providing_service": "d"},
            developer_name="LunchCo",
            third_party=True,
        )
        restored = ServicePolicyDocument.from_dict(document.to_dict())
        assert restored.third_party
        assert restored.developer_name == "LunchCo"


class TestSettingsDocument:
    def figure4(self) -> SettingsDocument:
        return SettingsDocument(
            [
                [
                    SettingOptionDescription(
                        "fine grained location sensing", "wifi=opt-in"
                    ),
                    SettingOptionDescription(
                        "coarse grained location sensing", "wifi=opt-in"
                    ),
                    SettingOptionDescription("No location sensing", "wifi=opt-out"),
                ]
            ]
        )

    def test_matches_figure4_structure(self):
        data = self.figure4().to_dict()
        select = data["settings"][0]["select"]
        assert select[0] == {
            "description": "fine grained location sensing",
            "on": "wifi=opt-in",
        }
        assert select[2]["on"] == "wifi=opt-out"

    def test_round_trip(self):
        document = self.figure4()
        assert SettingsDocument.from_json(document.to_json()) == document

    def test_empty_group_rejected(self):
        with pytest.raises(SchemaError):
            SettingsDocument([[]])

    def test_names_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            SettingsDocument(
                [[SettingOptionDescription("a", "x=1")]], names=["a", "b"]
            )

    def test_key_survives_round_trip(self):
        document = SettingsDocument(
            [[SettingOptionDescription("a", "x=1", key="fine")]]
        )
        restored = SettingsDocument.from_dict(document.to_dict())
        assert restored.groups[0][0].key == "fine"


class TestObservationDescription:
    def test_granularity_and_inferred_round_trip(self):
        obs = ObservationDescription(
            name="occupancy",
            granularity=GranularityLevel.COARSE,
            inferred=("occupancy", "presence"),
        )
        restored = ObservationDescription.from_dict(obs.to_dict())
        assert restored == obs

    def test_minimal_dict(self):
        assert ObservationDescription(name="x").to_dict() == {"name": "x"}
