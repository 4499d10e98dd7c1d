"""Sensors, their settings, and the observations they produce."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import SensorError, StorageError
from repro.sensors.ontology import SensorTypeSpec

_observation_counter = itertools.count(1)


@contextmanager
def scoped_observation_ids(start: int = 1) -> Iterator[None]:
    """Deterministic observation ids inside a sealed world.

    Ids are normally process-unique, which makes serialized byte counts
    (WAL totals) depend on how many observations earlier code created.
    Harnesses that promise byte-identical counts (each repeat of a
    ``repro bench`` workload) run their isolated world under this
    scope; the process-wide counter is restored on exit.
    """
    global _observation_counter
    saved = _observation_counter
    _observation_counter = itertools.count(start)
    try:
        yield
    finally:
        _observation_counter = saved


@dataclass(frozen=True)
class Observation:
    """A single typed reading produced by a sensor.

    The paper (Section IV-A.5): "Each observation has a timestamp and a
    location ... associated with it."  ``payload`` holds the fields the
    sensor type declares; ``subject_id`` is filled when the reading is
    attributable to a person (a device MAC resolved to its owner), which
    is what makes it subject to user preferences.
    """

    observation_id: int
    sensor_id: str
    sensor_type: str
    timestamp: float
    space_id: Optional[str]
    payload: Dict[str, object]
    subject_id: Optional[str] = None
    granularity: str = "precise"

    @staticmethod
    def create(
        sensor_id: str,
        sensor_type: str,
        timestamp: float,
        space_id: Optional[str],
        payload: Dict[str, object],
        subject_id: Optional[str] = None,
    ) -> "Observation":
        """Build an observation with a fresh process-unique id."""
        return Observation(
            observation_id=next(_observation_counter),
            sensor_id=sensor_id,
            sensor_type=sensor_type,
            timestamp=timestamp,
            space_id=space_id,
            payload=dict(payload),
            subject_id=subject_id,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "observation_id": self.observation_id,
            "sensor_id": self.sensor_id,
            "sensor_type": self.sensor_type,
            "timestamp": self.timestamp,
            "space_id": self.space_id,
            "payload": dict(self.payload),
            "subject_id": self.subject_id,
            "granularity": self.granularity,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Observation":
        """The inverse of :meth:`to_dict`; raises :class:`StorageError`.

        The id must be an integer and the timestamp a number, since the
        datastore orders and matches readings by them.
        """
        try:
            if not isinstance(data["observation_id"], int):
                raise TypeError("observation_id is not an integer")
            if not isinstance(data["timestamp"], (int, float)):
                raise TypeError("timestamp is not a number")
            return Observation(
                observation_id=data["observation_id"],
                sensor_id=data["sensor_id"],
                sensor_type=data["sensor_type"],
                timestamp=data["timestamp"],
                space_id=data.get("space_id"),
                payload=dict(data.get("payload", {})),
                subject_id=data.get("subject_id"),
                granularity=data.get("granularity", "precise"),
            )
        except (KeyError, TypeError) as exc:
            raise StorageError("malformed observation record: %s" % exc) from None


class SensorSettings:
    """Validated, mutable settings of one sensor instance.

    Wraps the raw parameter dict and enforces the sensor type's
    :class:`~repro.sensors.ontology.ParameterSpec` bounds on every
    update, as the paper requires settings to be "a set of valid
    parameters associated with the sensor".
    """

    def __init__(self, spec: SensorTypeSpec, overrides: Optional[Dict[str, object]] = None) -> None:
        self._spec = spec
        self._values: Dict[str, object] = spec.default_settings()
        if overrides:
            self.update(overrides)

    @property
    def spec(self) -> SensorTypeSpec:
        return self._spec

    def get(self, name: str) -> object:
        self._spec.parameter(name)  # raises on unknown parameter
        return self._values[name]

    def update(self, changes: Dict[str, object]) -> None:
        """Apply ``changes`` atomically: all validate or none apply."""
        self._spec.validate_settings(changes)
        self._values.update(changes)

    def set(self, name: str, value: object) -> None:
        self.update({name: value})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SensorSettings):
            return NotImplemented
        return self._spec.type_name == other._spec.type_name and self._values == other._values

    def __repr__(self) -> str:
        return "SensorSettings(%s, %r)" % (self._spec.type_name, self._values)


class Sensor:
    """Base class for a deployed sensor instance.

    Subclasses (the simulated drivers) override :meth:`sample` to
    produce observations from the simulation state.  A sensor is *bound*
    to a space and carries live settings.
    """

    def __init__(
        self,
        sensor_id: str,
        spec: SensorTypeSpec,
        space_id: str,
        settings: Optional[Dict[str, object]] = None,
    ) -> None:
        if not sensor_id:
            raise SensorError("sensor_id must be non-empty")
        self.sensor_id = sensor_id
        self.spec = spec
        self.space_id = space_id
        self.settings = SensorSettings(spec, settings)
        self.enabled = True

    @property
    def sensor_type(self) -> str:
        return self.spec.type_name

    @property
    def subsystem(self) -> str:
        return self.spec.subsystem

    def actuate(self, changes: Dict[str, object]) -> None:
        """Change settings; the BMS calls this to execute policies."""
        self.settings.update(changes)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def sample(self, now: float, environment: "object") -> List[Observation]:
        """Produce observations for the current tick.

        ``environment`` is a driver-specific view of the simulated
        world; the base class produces nothing.
        """
        return []

    def make_observation(
        self,
        now: float,
        payload: Dict[str, object],
        subject_id: Optional[str] = None,
    ) -> Observation:
        """Stamp an observation with this sensor's id, type and space."""
        unknown = set(payload) - {f.name for f in self.spec.observation_fields}
        if unknown:
            raise SensorError(
                "sensor %r produced undeclared fields %r" % (self.sensor_id, sorted(unknown))
            )
        return Observation.create(
            sensor_id=self.sensor_id,
            sensor_type=self.sensor_type,
            timestamp=now,
            space_id=self.space_id,
            payload=payload,
            subject_id=subject_id,
        )

    def __repr__(self) -> str:
        return "%s(id=%r, space=%r)" % (type(self).__name__, self.sensor_id, self.space_id)
