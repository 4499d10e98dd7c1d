"""Unit tests for repro.sensors.ontology."""

import pytest

from repro.errors import SensorError
from repro.sensors.ontology import CAMERA, ParameterSpec, WIFI_AP, default_ontology


class TestParameterSpec:
    def test_choices_accept_member(self):
        spec = ParameterSpec("mode", "m", default="a", choices=("a", "b"))
        spec.validate("b")

    def test_choices_reject_non_member(self):
        spec = ParameterSpec("mode", "m", default="a", choices=("a", "b"))
        with pytest.raises(SensorError):
            spec.validate("c")

    def test_numeric_bounds(self):
        spec = ParameterSpec("fps", "f", default=5.0, minimum=1.0, maximum=30.0)
        spec.validate(1.0)
        spec.validate(30.0)
        with pytest.raises(SensorError):
            spec.validate(0.5)
        with pytest.raises(SensorError):
            spec.validate(31)

    def test_numeric_rejects_non_number(self):
        spec = ParameterSpec("fps", "f", default=5.0, minimum=1.0)
        with pytest.raises(SensorError):
            spec.validate("fast")

    def test_numeric_rejects_bool(self):
        spec = ParameterSpec("fps", "f", default=5.0, minimum=0.0)
        with pytest.raises(SensorError):
            spec.validate(True)


class TestSensorTypeSpec:
    def test_default_settings(self):
        defaults = CAMERA.default_settings()
        assert defaults["capture_fps"] == 5.0
        assert defaults["resolution"] == "720p"

    def test_unknown_parameter(self):
        with pytest.raises(SensorError):
            CAMERA.parameter("zoom")

    def test_validate_settings_all_or_error(self):
        with pytest.raises(SensorError):
            CAMERA.validate_settings({"capture_fps": 5.0, "resolution": "8k"})

    def test_personal_fields(self):
        assert "device_mac" in WIFI_AP.personal_fields
        assert "rssi" not in WIFI_AP.personal_fields


class TestSensorOntology:
    def test_default_ontology_has_dbh_types(self):
        ontology = default_ontology()
        for name in (
            "wifi_access_point",
            "bluetooth_beacon",
            "camera",
            "power_meter",
            "temperature_sensor",
            "motion_sensor",
            "hvac_unit",
            "id_card_reader",
        ):
            assert name in ontology

    def test_duplicate_registration_rejected(self):
        ontology = default_ontology()
        with pytest.raises(SensorError):
            ontology.register(WIFI_AP)

    def test_unknown_lookup(self):
        with pytest.raises(SensorError):
            default_ontology().get("sonar")

    def test_subsystems_grouping(self):
        ontology = default_ontology()
        hvac_types = {s.type_name for s in ontology.types_in_subsystem("hvac")}
        assert hvac_types == {"temperature_sensor", "motion_sensor", "hvac_unit"}

    def test_types_inferring_location(self):
        ontology = default_ontology()
        names = {s.type_name for s in ontology.types_inferring("location")}
        assert names == {"wifi_access_point", "bluetooth_beacon"}

    def test_type_names_sorted(self):
        names = default_ontology().type_names()
        assert names == sorted(names)
