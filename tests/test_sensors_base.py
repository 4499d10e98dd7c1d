"""Unit tests for repro.sensors.base."""

import pytest

from repro.errors import SensorError
from repro.sensors.base import Observation, Sensor, SensorSettings
from repro.sensors.ontology import CAMERA, TEMPERATURE, WIFI_AP


class TestObservation:
    def test_create_assigns_unique_ids(self):
        a = Observation.create("s1", "camera", 1.0, "r1", {})
        b = Observation.create("s1", "camera", 1.0, "r1", {})
        assert a.observation_id != b.observation_id

    def test_to_dict_round_trip_fields(self):
        obs = Observation.create("s1", "camera", 2.5, "r1", {"k": "v"}, subject_id="u1")
        data = obs.to_dict()
        assert data["sensor_id"] == "s1"
        assert data["subject_id"] == "u1"
        assert data["payload"] == {"k": "v"}
        assert data["granularity"] == "precise"


class TestSensorSettings:
    def test_defaults_applied(self):
        settings = SensorSettings(CAMERA)
        assert settings.get("capture_fps") == 5.0

    def test_overrides_validated(self):
        with pytest.raises(SensorError):
            SensorSettings(CAMERA, {"capture_fps": 1000.0})

    def test_update_atomic(self):
        settings = SensorSettings(CAMERA)
        with pytest.raises(SensorError):
            settings.update({"capture_fps": 10.0, "resolution": "8k"})
        # The valid half must not have been applied.
        assert settings.get("capture_fps") == 5.0

    def test_unknown_parameter_get(self):
        settings = SensorSettings(CAMERA)
        with pytest.raises(SensorError):
            settings.get("zoom")

    def test_equality_on_type_and_values(self):
        assert SensorSettings(CAMERA) == SensorSettings(CAMERA)
        a = SensorSettings(CAMERA)
        a.set("capture_fps", 10.0)
        assert a != SensorSettings(CAMERA)
        assert SensorSettings(CAMERA) != SensorSettings(TEMPERATURE)


class TestSensor:
    def test_empty_id_rejected(self):
        with pytest.raises(SensorError):
            Sensor("", WIFI_AP, "r1")

    def test_actuate_changes_settings(self):
        sensor = Sensor("s1", CAMERA, "r1")
        sensor.actuate({"recording": "off"})
        assert sensor.settings.get("recording") == "off"

    def test_make_observation_rejects_undeclared_fields(self):
        sensor = Sensor("s1", CAMERA, "r1")
        with pytest.raises(SensorError):
            sensor.make_observation(1.0, {"not_a_field": 1})

    def test_make_observation_stamps_location_and_type(self):
        sensor = Sensor("s1", CAMERA, "r9")
        obs = sensor.make_observation(3.0, {"motion_score": 0.5})
        assert obs.space_id == "r9"
        assert obs.sensor_type == "camera"
        assert obs.timestamp == 3.0

    def test_enable_disable(self):
        sensor = Sensor("s1", CAMERA, "r1")
        sensor.disable()
        assert not sensor.enabled
        sensor.enable()
        assert sensor.enabled

    def test_base_sample_returns_nothing(self):
        assert Sensor("s1", CAMERA, "r1").sample(0.0, object()) == []
