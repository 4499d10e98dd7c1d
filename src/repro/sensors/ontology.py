"""A compact sensor ontology.

The paper models sensors using the Haystack and W3C Semantic Sensor
Network ontologies.  We keep the parts the policy machinery needs:

- a :class:`SensorTypeSpec` describes a sensor type: which settings
  parameters it accepts (with valid ranges), which observation fields it
  produces, which subsystem it belongs to, and what can be *inferred*
  from its data (Section IV-B.2 asks policies to describe inferred
  information, not just raw observations).
- a :class:`SensorOntology` is the registry of type specs.

:func:`default_ontology` returns the types deployed in Donald Bren Hall
as described in Section II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SensorError


@dataclass(frozen=True)
class ParameterSpec:
    """A single settings parameter a sensor type accepts.

    ``choices`` constrains categorical parameters; ``minimum`` /
    ``maximum`` constrain numeric ones.  Exactly one style should be
    used per parameter.
    """

    name: str
    description: str
    default: object
    choices: Optional[Tuple[object, ...]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def validate(self, value: object) -> None:
        """Raise :class:`SensorError` when ``value`` is out of range."""
        if self.choices is not None:
            if value not in self.choices:
                raise SensorError(
                    "parameter %r: %r not in %r" % (self.name, value, self.choices)
                )
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SensorError(
                "parameter %r: expected a number, got %r" % (self.name, value)
            )
        if self.minimum is not None and value < self.minimum:
            raise SensorError(
                "parameter %r: %r below minimum %r" % (self.name, value, self.minimum)
            )
        if self.maximum is not None and value > self.maximum:
            raise SensorError(
                "parameter %r: %r above maximum %r" % (self.name, value, self.maximum)
            )


@dataclass(frozen=True)
class ObservationField:
    """One field of the observation payload a sensor type produces."""

    name: str
    description: str
    personal: bool = False
    """Whether the field identifies or can be linked to a person
    (e.g. a device MAC address), which makes it subject to privacy
    policies."""


@dataclass(frozen=True)
class SensorTypeSpec:
    """Schema of a sensor type: settings, observations, inferences."""

    type_name: str
    subsystem: str
    description: str
    parameters: Tuple[ParameterSpec, ...] = ()
    observation_fields: Tuple[ObservationField, ...] = ()
    inferences: Tuple[str, ...] = ()
    """Abstract data types inferable from this sensor's observations,
    drawn from :mod:`repro.core.language.vocabulary` (e.g. "location",
    "occupancy", "activity")."""

    def parameter(self, name: str) -> ParameterSpec:
        for spec in self.parameters:
            if spec.name == name:
                return spec
        raise SensorError(
            "sensor type %r has no parameter %r" % (self.type_name, name)
        )

    def default_settings(self) -> Dict[str, object]:
        return {spec.name: spec.default for spec in self.parameters}

    def validate_settings(self, settings: Dict[str, object]) -> None:
        """Check every provided setting against its parameter spec."""
        for name, value in settings.items():
            self.parameter(name).validate(value)

    @property
    def personal_fields(self) -> List[str]:
        return [f.name for f in self.observation_fields if f.personal]


class SensorOntology:
    """Registry of :class:`SensorTypeSpec` keyed by type name."""

    def __init__(self) -> None:
        self._types: Dict[str, SensorTypeSpec] = {}

    def register(self, spec: SensorTypeSpec) -> SensorTypeSpec:
        if spec.type_name in self._types:
            raise SensorError("duplicate sensor type %r" % spec.type_name)
        self._types[spec.type_name] = spec
        return spec

    def get(self, type_name: str) -> SensorTypeSpec:
        try:
            return self._types[type_name]
        except KeyError:
            raise SensorError("unknown sensor type %r" % type_name) from None

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._types

    def type_names(self) -> List[str]:
        return sorted(self._types)

    def subsystems(self) -> List[str]:
        return sorted({spec.subsystem for spec in self._types.values()})

    def types_in_subsystem(self, subsystem: str) -> List[SensorTypeSpec]:
        return [s for s in self._types.values() if s.subsystem == subsystem]

    def types_inferring(self, inference: str) -> List[SensorTypeSpec]:
        """Types whose observations allow inferring ``inference``."""
        return [s for s in self._types.values() if inference in s.inferences]


# ----------------------------------------------------------------------
# The Donald Bren Hall sensor inventory (Section II).
# ----------------------------------------------------------------------

WIFI_AP = SensorTypeSpec(
    type_name="wifi_access_point",
    subsystem="network",
    description=(
        "WiFi access point; logs the MAC address of each associating "
        "device together with a timestamp, for security purposes."
    ),
    parameters=(
        ParameterSpec(
            "logging",
            "whether association events are logged",
            default="on",
            choices=("on", "off"),
        ),
        ParameterSpec(
            "log_interval_s",
            "seconds between association log flushes",
            default=60.0,
            minimum=1.0,
            maximum=3600.0,
        ),
    ),
    observation_fields=(
        ObservationField("device_mac", "MAC address of the connecting device", personal=True),
        ObservationField("ap_mac", "MAC address of the access point"),
        ObservationField("rssi", "received signal strength (dBm)"),
    ),
    inferences=("location", "presence", "identity"),
)

BLE_BEACON = SensorTypeSpec(
    type_name="bluetooth_beacon",
    subsystem="beacon",
    description=(
        "Bluetooth Low Energy beacon; a phone that senses the beacon "
        "reports the room it is in."
    ),
    parameters=(
        ParameterSpec(
            "advertising_interval_ms",
            "beacon advertising interval",
            default=500.0,
            minimum=20.0,
            maximum=10000.0,
        ),
        ParameterSpec(
            "tx_power",
            "transmit power level",
            default="medium",
            choices=("low", "medium", "high"),
        ),
    ),
    observation_fields=(
        ObservationField("device_id", "identifier of the sensing device", personal=True),
        ObservationField("beacon_id", "identifier of the beacon"),
        ObservationField("proximity", "proximity class (immediate/near/far)"),
    ),
    inferences=("location", "presence"),
)

CAMERA = SensorTypeSpec(
    type_name="camera",
    subsystem="camera",
    description="Surveillance camera covering corridors and doors.",
    parameters=(
        ParameterSpec(
            "capture_fps",
            "frames captured per second",
            default=5.0,
            minimum=0.1,
            maximum=60.0,
        ),
        ParameterSpec(
            "resolution",
            "image resolution",
            default="720p",
            choices=("480p", "720p", "1080p"),
        ),
        ParameterSpec(
            "recording",
            "whether frames are retained",
            default="on",
            choices=("on", "off"),
        ),
    ),
    observation_fields=(
        ObservationField("frame_ref", "reference to the captured frame", personal=True),
        ObservationField("motion_score", "fraction of pixels changed"),
        ObservationField("faces_detected", "number of detected faces", personal=True),
    ),
    inferences=("presence", "identity", "activity"),
)

POWER_METER = SensorTypeSpec(
    type_name="power_meter",
    subsystem="energy",
    description="Power outlet meter monitoring energy usage.",
    parameters=(
        ParameterSpec(
            "sample_interval_s",
            "seconds between samples",
            default=30.0,
            minimum=1.0,
            maximum=3600.0,
        ),
    ),
    observation_fields=(
        ObservationField("watts", "instantaneous power draw"),
        ObservationField("outlet_id", "identifier of the outlet"),
    ),
    inferences=("occupancy", "activity"),
)

TEMPERATURE = SensorTypeSpec(
    type_name="temperature_sensor",
    subsystem="hvac",
    description="Room temperature sensor feeding the HVAC loop.",
    parameters=(
        ParameterSpec(
            "sample_interval_s",
            "seconds between samples",
            default=60.0,
            minimum=5.0,
            maximum=3600.0,
        ),
    ),
    observation_fields=(
        ObservationField("fahrenheit", "temperature in degrees Fahrenheit"),
    ),
    inferences=(),
)

MOTION = SensorTypeSpec(
    type_name="motion_sensor",
    subsystem="hvac",
    description="Passive-infrared motion sensor used for occupancy.",
    parameters=(
        ParameterSpec(
            "sensitivity",
            "trigger sensitivity",
            default="medium",
            choices=("low", "medium", "high"),
        ),
    ),
    observation_fields=(
        ObservationField("motion", "1 when motion detected in the window else 0"),
    ),
    inferences=("occupancy", "presence"),
)

HVAC_UNIT = SensorTypeSpec(
    type_name="hvac_unit",
    subsystem="hvac",
    description="HVAC actuator: fan plus heating/cooling element.",
    parameters=(
        ParameterSpec(
            "setpoint_f",
            "target temperature in Fahrenheit",
            default=70.0,
            minimum=55.0,
            maximum=85.0,
        ),
        ParameterSpec(
            "fan_speed",
            "fan speed",
            default="auto",
            choices=("off", "low", "medium", "high", "auto"),
        ),
    ),
    observation_fields=(
        ObservationField("setpoint_f", "current setpoint"),
        ObservationField("fan_speed", "current fan speed"),
    ),
    inferences=(),
)

ID_READER = SensorTypeSpec(
    type_name="id_card_reader",
    subsystem="access",
    description="ID card / fingerprint reader guarding meeting rooms.",
    parameters=(
        ParameterSpec(
            "mode",
            "accepted credential kinds",
            default="card_or_fingerprint",
            choices=("card", "fingerprint", "card_or_fingerprint"),
        ),
    ),
    observation_fields=(
        ObservationField("credential_id", "identifier of the presented credential", personal=True),
        ObservationField("granted", "whether access was granted"),
    ),
    inferences=("identity", "presence"),
)


def default_ontology() -> SensorOntology:
    """The DBH sensor ontology: every type Section II mentions."""
    ontology = SensorOntology()
    for spec in (
        WIFI_AP,
        BLE_BEACON,
        CAMERA,
        POWER_METER,
        TEMPERATURE,
        MOTION,
        HVAC_UNIT,
        ID_READER,
    ):
        ontology.register(spec)
    return ontology
