"""The sensor manager: capture path of TIPPERS.

Owns the building's sensor subsystems, ticks them against the simulated
environment, attributes observations to people (resolving device MACs
through the user directory), runs capture-phase enforcement, and hands
surviving observations to the datastore (storage-phase enforcement
included).  This is steps (2) and (3) of Figure 1.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.enforcement.engine import EnforcementEngine
from repro.core.policy.base import DecisionPhase
from repro.errors import SensorError, StorageError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.sensors.base import Observation, Sensor
from repro.sensors.drivers import create_sensor
from repro.sensors.environment import EnvironmentView
from repro.sensors.subsystem import SensorSubsystem
from repro.tippers.datastore import Datastore
from repro.users.profile import UserDirectory


@dataclass
class CaptureStats:
    """Counters of one or many capture ticks."""

    sampled: int = 0
    dropped_capture: int = 0
    dropped_storage: int = 0
    stored: int = 0
    degraded: int = 0
    write_failures: int = 0

    def merge(self, other: "CaptureStats") -> None:
        self.sampled += other.sampled
        self.dropped_capture += other.dropped_capture
        self.dropped_storage += other.dropped_storage
        self.stored += other.stored
        self.degraded += other.degraded
        self.write_failures += other.write_failures


#: The :class:`CaptureStats` fields the metrics registry reports.
_TRACKED = {
    "sampled": ("capture_observations_total", {"stage": "sampled"}),
    "stored": ("capture_observations_total", {"stage": "stored"}),
    "dropped_capture": ("capture_dropped_total", {"phase": "capture"}),
    "dropped_storage": ("capture_dropped_total", {"phase": "storage"}),
    "degraded": ("capture_degraded_total", {}),
    "write_failures": ("capture_write_failures_total", {}),
}


@dataclass
class SensorHealth:
    """The supervisor's view of one sensor."""

    sensor_id: str
    consecutive_misses: int = 0
    quarantined: bool = False
    quarantines: int = 0
    probes: int = 0
    readmissions: int = 0


class SensorHealthSupervisor:
    """Heartbeat-miss detection and quarantine for misbehaving sensors.

    A sensor that fails to *answer* ``miss_threshold`` consecutive
    sampling passes is quarantined: the capture gate stops sampling it,
    so a stalled source sheds itself instead of clogging every tick.
    Missing a heartbeat means the sensor stalled mid-sample (the
    subsystem's ``stalled_last_pass``), never that it answered with
    zero observations -- an empty room is a healthy reading.

    While quarantined, each pass runs a seeded re-admission probe: with
    probability ``probe_rate`` the sensor is sampled again.  A probed
    sensor that answers is fully re-admitted; one that stalls again is
    re-quarantined on the very next miss (its miss count restarts one
    short of the threshold).  All draws come from the supervisor's own
    seeded RNG, so two same-seed runs quarantine and re-admit the same
    sensors at the same ticks.
    """

    def __init__(
        self,
        miss_threshold: int = 3,
        probe_rate: float = 0.25,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if miss_threshold < 1:
            raise SensorError("miss_threshold must be >= 1")
        if not 0.0 < probe_rate <= 1.0:
            raise SensorError("probe_rate must lie in (0, 1]")
        self.miss_threshold = miss_threshold
        self.probe_rate = probe_rate
        self.seed = seed
        self._rng = random.Random(seed)
        self._health: Dict[str, SensorHealth] = {}
        self._probed: Dict[str, bool] = {}
        self.metrics = metrics if metrics is not None else get_registry()
        self._m_quarantines = self.metrics.counter("quarantine_events_total")
        self._m_probes = self.metrics.counter("quarantine_probes_total")
        self._m_readmissions = self.metrics.counter(
            "quarantine_readmissions_total"
        )
        self._m_skipped = self.metrics.counter(
            "quarantine_skipped_samples_total"
        )
        self._m_active = self.metrics.gauge("quarantine_active")

    def health(self, sensor_id: str) -> SensorHealth:
        record = self._health.get(sensor_id)
        if record is None:
            record = self._health[sensor_id] = SensorHealth(sensor_id)
        return record

    def quarantined(self) -> List[str]:
        """Currently quarantined sensor ids, sorted."""
        return sorted(
            sensor_id
            for sensor_id, record in self._health.items()
            if record.quarantined
        )

    def should_sample(self, sensor: Sensor) -> bool:
        """The capture gate: sample, or hold in quarantine this pass."""
        record = self.health(sensor.sensor_id)
        if not record.quarantined:
            return True
        record.probes += 1
        self._m_probes.inc()
        if self._rng.random() < self.probe_rate:
            # Probe: sample once.  Whether it stalls again decides
            # re-admission in observe_pass.
            self._probed[sensor.sensor_id] = True
            return True
        self._m_skipped.inc()
        return False

    def observe_pass(self, subsystem: SensorSubsystem) -> None:
        """Digest one sampling pass of ``subsystem`` into health state."""
        stalled = subsystem.stalled_last_pass
        for sensor in subsystem:
            record = self.health(sensor.sensor_id)
            probed = self._probed.pop(sensor.sensor_id, False)
            if record.quarantined and not probed:
                continue  # held out this pass; nothing observed
            if sensor.sensor_id in stalled:
                if probed:
                    # A failed probe: stay quarantined, one miss from
                    # the threshold so recovery needs a clean answer.
                    record.consecutive_misses = self.miss_threshold
                    continue
                record.consecutive_misses += 1
                if record.consecutive_misses >= self.miss_threshold:
                    record.quarantined = True
                    record.quarantines += 1
                    self._m_quarantines.inc()
                    self.metrics.counter(
                        "quarantine_events_by_sensor_total",
                        {"sensor": sensor.sensor_id},
                    ).inc()
            else:
                if record.quarantined:
                    record.quarantined = False
                    record.readmissions += 1
                    self._m_readmissions.inc()
                record.consecutive_misses = 0
        self._m_active.set(len(self.quarantined()))


class SensorManager:
    """Registers sensors, ticks them, and enforces the capture path."""

    def __init__(
        self,
        engine: EnforcementEngine,
        datastore: Datastore,
        directory: Optional[UserDirectory] = None,
        enforce_capture: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        supervisor: Optional[SensorHealthSupervisor] = None,
    ) -> None:
        self._engine = engine
        self._datastore = datastore
        self._directory = directory
        self._subsystems: Dict[str, SensorSubsystem] = {}
        self.enforce_capture = enforce_capture
        self.supervisor = supervisor
        self.stats = CaptureStats()
        self.metrics = metrics if metrics is not None else get_registry()
        self.metrics.track(self.stats, _TRACKED)
        self._m_ticks = self.metrics.counter("capture_ticks_total")
        self._m_tick_seconds = self.metrics.histogram("capture_tick_seconds")

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        sensor_type: str,
        sensor_id: str,
        space_id: str,
        settings: Optional[Dict[str, object]] = None,
    ) -> Sensor:
        """Create and register a sensor of ``sensor_type``."""
        try:
            sensor = create_sensor(sensor_type, sensor_id, space_id, settings)
        except KeyError:
            raise SensorError("unknown sensor type %r" % sensor_type) from None
        return self.register(sensor)

    def register(self, sensor: Sensor) -> Sensor:
        subsystem = self._subsystems.setdefault(
            sensor.subsystem, SensorSubsystem(sensor.subsystem)
        )
        subsystem.add(sensor)
        return sensor

    def subsystem(self, name: str) -> SensorSubsystem:
        try:
            return self._subsystems[name]
        except KeyError:
            raise SensorError("no subsystem %r" % name) from None

    def subsystems(self) -> List[SensorSubsystem]:
        return list(self._subsystems.values())

    def sensors(self) -> List[Sensor]:
        return [s for subsystem in self._subsystems.values() for s in subsystem]

    def sensor(self, sensor_id: str) -> Sensor:
        for subsystem in self._subsystems.values():
            if sensor_id in subsystem:
                return subsystem.get(sensor_id)
        raise SensorError("unknown sensor %r" % sensor_id)

    def sensors_in_space(self, space_id: str, sensor_type: Optional[str] = None) -> List[Sensor]:
        result = []
        for subsystem in self._subsystems.values():
            for sensor in subsystem.sensors_in_space(space_id):
                if sensor_type is None or sensor.sensor_type == sensor_type:
                    result.append(sensor)
        return result

    def count(self) -> int:
        return sum(len(s) for s in self._subsystems.values())

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def attribute(self, observation: Observation) -> Observation:
        """Resolve the observation's subject through the directory.

        WiFi logs carry only a device MAC; the directory links it to a
        person.  Already-attributed observations pass through.
        """
        if observation.subject_id is not None or self._directory is None:
            return observation
        mac = observation.payload.get("device_mac")
        if not isinstance(mac, str):
            return observation
        owner = self._directory.owner_of_device(mac)
        if owner is None:
            return observation
        return Observation(
            observation_id=observation.observation_id,
            sensor_id=observation.sensor_id,
            sensor_type=observation.sensor_type,
            timestamp=observation.timestamp,
            space_id=observation.space_id,
            payload=dict(observation.payload),
            subject_id=owner,
            granularity=observation.granularity,
        )

    def tick(self, now: float, environment: EnvironmentView) -> CaptureStats:
        """Sample every sensor once and run the capture path."""
        start = time.perf_counter()
        tick_stats = CaptureStats()
        gate = (
            self.supervisor.should_sample if self.supervisor is not None else None
        )
        for subsystem in self._subsystems.values():
            for raw in subsystem.sample_all(now, environment, gate=gate):
                tick_stats.sampled += 1
                observation = self.attribute(raw)
                stored = self._ingest(observation, tick_stats)
                if stored is not None:
                    tick_stats.stored += 1
            if self.supervisor is not None:
                self.supervisor.observe_pass(subsystem)
        self.stats.merge(tick_stats)
        self._m_ticks.inc()
        self._m_tick_seconds.observe(time.perf_counter() - start)
        return tick_stats

    def ingest(self, observation: Observation) -> Optional[Observation]:
        """Run one externally produced observation through the path."""
        tick_stats = CaptureStats()
        tick_stats.sampled += 1
        stored = self._ingest(self.attribute(observation), tick_stats)
        if stored is not None:
            tick_stats.stored += 1
        self.stats.merge(tick_stats)
        return stored

    def _ingest(
        self, observation: Observation, tick_stats: CaptureStats
    ) -> Optional[Observation]:
        current = observation
        if self.enforce_capture:
            captured = self._engine.enforce_observation(
                current, DecisionPhase.CAPTURE
            )
            if captured is None:
                tick_stats.dropped_capture += 1
                return None
            current = captured
            stored = self._engine.enforce_observation(
                current, DecisionPhase.STORAGE
            )
            if stored is None:
                tick_stats.dropped_storage += 1
                return None
            if stored.granularity != observation.granularity:
                tick_stats.degraded += 1
            current = stored
        try:
            self._datastore.insert(current)
        except StorageError:
            # A failed write loses the observation but must not kill
            # the whole tick: the capture path degrades gracefully.
            tick_stats.write_failures += 1
            return None
        return current
