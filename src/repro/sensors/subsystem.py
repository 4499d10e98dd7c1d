"""Sensor subsystems: grouping sensors of the same kind.

The paper: "Sensors of the same type can be organized into sensor
subsystems.  Examples of such subsystems are camera subsystem, beacon
subsystem, and HVAC subsystem."  A subsystem provides bulk actuation
(e.g. disable all cameras on a floor) and per-space lookup, which the
building's sensor manager builds on.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.errors import SensorError
from repro.sensors.base import Observation, Sensor
from repro.sensors.environment import EnvironmentView

#: A sensing-level interception point: called once per sensor per
#: sampling pass; returning a truthy value stalls that sensor (it
#: produces no observations this pass).
StallPlane = Callable[[Sensor], bool]


class SensorSubsystem:
    """A named group of sensors, normally sharing a subsystem label."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._sensors: Dict[str, Sensor] = {}
        self.stalled_samples = 0
        #: Sensors that failed to answer the most recent sampling pass
        #: (stalled by a fault plane).  The health supervisor reads this
        #: to distinguish "did not answer" from "answered with nothing"
        #: -- an empty room legitimately yields zero observations.
        self.stalled_last_pass: Set[str] = set()
        #: Samples skipped because a gate refused the sensor (e.g. a
        #: quarantined source); never counted as stalls.
        self.gated_samples = 0
        self._fault_planes: List[StallPlane] = []

    # ------------------------------------------------------------------
    # Fault planes
    # ------------------------------------------------------------------
    def install_fault_plane(self, plane: StallPlane) -> None:
        """Attach a sensor-stall plane (see :data:`StallPlane`)."""
        self._fault_planes.append(plane)

    def remove_fault_plane(self, plane: StallPlane) -> None:
        if plane in self._fault_planes:
            self._fault_planes.remove(plane)

    def add(self, sensor: Sensor) -> Sensor:
        if sensor.sensor_id in self._sensors:
            raise SensorError("duplicate sensor id %r" % sensor.sensor_id)
        self._sensors[sensor.sensor_id] = sensor
        return sensor

    def get(self, sensor_id: str) -> Sensor:
        try:
            return self._sensors[sensor_id]
        except KeyError:
            raise SensorError(
                "subsystem %r has no sensor %r" % (self.name, sensor_id)
            ) from None

    def remove(self, sensor_id: str) -> Sensor:
        sensor = self.get(sensor_id)
        del self._sensors[sensor_id]
        return sensor

    def __len__(self) -> int:
        return len(self._sensors)

    def __iter__(self) -> Iterator[Sensor]:
        return iter(self._sensors.values())

    def __contains__(self, sensor_id: str) -> bool:
        return sensor_id in self._sensors

    def sensors_in_space(self, space_id: str) -> List[Sensor]:
        return [s for s in self._sensors.values() if s.space_id == space_id]

    def select(self, predicate: Callable[[Sensor], bool]) -> List[Sensor]:
        return [s for s in self._sensors.values() if predicate(s)]

    def sample_all(
        self,
        now: float,
        environment: EnvironmentView,
        gate: Optional[Callable[[Sensor], bool]] = None,
    ) -> List[Observation]:
        """Tick every sensor once and gather their observations.

        Sensors stalled by an installed fault plane are skipped for this
        pass (counted in :attr:`stalled_samples`) but stay registered.
        ``gate`` is consulted first -- before the fault planes, so a
        gated-out (quarantined) sensor consumes no injector step and
        cannot be counted as a stall.
        """
        observations: List[Observation] = []
        self.stalled_last_pass = set()
        for sensor in self._sensors.values():
            if gate is not None and not gate(sensor):
                self.gated_samples += 1
                continue
            if self._fault_planes and any(
                plane(sensor) for plane in self._fault_planes
            ):
                self.stalled_samples += 1
                self.stalled_last_pass.add(sensor.sensor_id)
                continue
            observations.extend(sensor.sample(now, environment))
        return observations
