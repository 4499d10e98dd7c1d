"""Unit tests for repro.sensors.subsystem."""

import pytest

from repro.errors import SensorError
from repro.sensors.drivers import SurveillanceCamera
from repro.sensors.environment import EnvironmentView, PresentDevice
from repro.sensors.subsystem import SensorSubsystem


class TwoRoomWorld(EnvironmentView):
    def devices_in(self, space_id):
        if space_id == "r1":
            return [PresentDevice("mary", "aa:bb")]
        return []


@pytest.fixture
def subsystem():
    sub = SensorSubsystem("camera")
    sub.add(SurveillanceCamera("cam-1", "r1"))
    sub.add(SurveillanceCamera("cam-2", "r2"))
    return sub


class TestRegistry:
    def test_duplicate_id_rejected(self, subsystem):
        with pytest.raises(SensorError):
            subsystem.add(SurveillanceCamera("cam-1", "r3"))

    def test_get_unknown(self, subsystem):
        with pytest.raises(SensorError):
            subsystem.get("cam-99")

    def test_remove(self, subsystem):
        subsystem.remove("cam-1")
        assert len(subsystem) == 1
        assert "cam-1" not in subsystem

    def test_sensors_in_space(self, subsystem):
        assert [s.sensor_id for s in subsystem.sensors_in_space("r1")] == ["cam-1"]

    def test_select(self, subsystem):
        chosen = subsystem.select(lambda s: s.space_id == "r2")
        assert [s.sensor_id for s in chosen] == ["cam-2"]


class TestSampling:
    def test_sample_all_gathers_everything(self, subsystem):
        observations = subsystem.sample_all(0.0, TwoRoomWorld())
        assert {o.sensor_id for o in observations} == {"cam-1", "cam-2"}

    def test_disabled_sensor_skipped(self, subsystem):
        subsystem.get("cam-2").disable()
        observations = subsystem.sample_all(0.0, TwoRoomWorld())
        assert {o.sensor_id for o in observations} == {"cam-1"}
