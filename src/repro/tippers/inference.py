"""Processing: deriving higher-level semantic information.

TIPPERS "processes higher-level semantic information from such data"
(Section II-B).  The inference engine turns raw observation streams
into the abstract data categories the policy language talks about:
occupancy, location, presence, and activity patterns.

It also implements the *inference attack* of Section II-A -- guessing a
person's role from arrival/departure heuristics ("non-faculty staff
arrive at 7 am and leave before 5 pm, graduate students generally leave
the building late...") -- which the examples use to demonstrate why
these flows need privacy policies at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.language.duration import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sensors.base import Observation
from repro.spatial.model import SpatialModel
from repro.tippers.datastore import Datastore

#: Sensor types whose observations place a subject at a space.
LOCATION_SENSOR_TYPES = ("bluetooth_beacon", "wifi_access_point")

#: Sensor type -> retention seconds (see
#: :meth:`~repro.tippers.policy_manager.PolicyManager.retention_by_sensor_type`).
RetentionSchedule = Callable[[], Mapping[str, float]]


def _no_retention() -> Mapping[str, float]:
    return {}


def _moved(observation: Observation) -> bool:
    return observation.payload.get("motion") == 1


@dataclass(frozen=True)
class LocationEstimate:
    """Where a subject most recently was."""

    subject_id: str
    space_id: str
    timestamp: float
    source_sensor_type: str
    granularity: str = "precise"


@dataclass(frozen=True)
class ActivityPattern:
    """A subject's daily rhythm over the observed period."""

    subject_id: str
    days_observed: int
    mean_arrival_hour: float
    mean_departure_hour: float

    @property
    def mean_hours_in_building(self) -> float:
        return max(0.0, self.mean_departure_hour - self.mean_arrival_hour)


class InferenceEngine:
    """Derives semantic information from the datastore.

    Every read that is given ``now`` sees only readings inside their
    sensor type's retention at ``now``, as ``retention`` reports it,
    whether or not a sweep has purged the older ones yet.
    """

    def __init__(
        self,
        datastore: Datastore,
        spatial: Optional[SpatialModel] = None,
        retention: RetentionSchedule = _no_retention,
    ) -> None:
        self._datastore = datastore
        self._spatial = spatial
        self._retention = retention

    def _since(self, sensor_type: str, now: float, window_s: float) -> float:
        """The window start of a read, raised to the type's retention cut."""
        since = now - window_s
        retention = self._retention().get(sensor_type)
        if retention is not None and now - retention > since:
            since = now - retention
        return max(0.0, since)

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def is_occupied(self, space_id: str, now: float, window_s: float = 300.0) -> bool:
        """Whether anything indicates presence in the recent window."""
        if self._datastore.query(
            sensor_type="motion_sensor",
            space_id=space_id,
            since=self._since("motion_sensor", now, window_s),
            predicate=_moved,
            limit=1,
        ):
            return True
        for sensor_type in LOCATION_SENSOR_TYPES:
            if self._datastore.query(
                sensor_type=sensor_type,
                space_id=space_id,
                since=self._since(sensor_type, now, window_s),
                limit=1,
            ):
                return True
        return False

    def occupant_count(
        self, space_id: str, now: float, window_s: float = 300.0
    ) -> int:
        """Distinct attributed subjects seen in the space recently."""
        subjects: Set[str] = set()
        for sensor_type in LOCATION_SENSOR_TYPES:
            for observation in self._datastore.query(
                sensor_type=sensor_type,
                space_id=space_id,
                since=self._since(sensor_type, now, window_s),
            ):
                if observation.subject_id is not None:
                    subjects.add(observation.subject_id)
        return len(subjects)

    def occupancy_map(self, now: float, window_s: float = 300.0) -> Dict[str, int]:
        """space_id -> occupant count, over all spaces with sightings."""
        subjects_by_space: Dict[str, Set[str]] = {}
        for sensor_type in LOCATION_SENSOR_TYPES:
            for observation in self._datastore.query(
                sensor_type=sensor_type, since=self._since(sensor_type, now, window_s)
            ):
                if observation.space_id is None or observation.subject_id is None:
                    continue
                subjects_by_space.setdefault(observation.space_id, set()).add(
                    observation.subject_id
                )
        return {space: len(subjects) for space, subjects in subjects_by_space.items()}

    # ------------------------------------------------------------------
    # Location and presence
    # ------------------------------------------------------------------
    def locate(
        self, subject_id: str, now: float, window_s: float = 900.0
    ) -> Optional[LocationEstimate]:
        """The subject's most recent location, if seen in the window.

        Scans the subject's history newest-first and stops past the
        newest location reading at or after the window start; among
        equal timestamps the lowest ``observation_id`` wins (the first
        in the datastore's query order).
        """
        since = max(0.0, now - window_s)
        retention = self._retention()
        best: Optional[Observation] = None
        for observation in reversed(self._datastore.of_subject(subject_id)):
            timestamp = observation.timestamp
            if timestamp < since or (best is not None and timestamp < best.timestamp):
                break
            sensor_type = observation.sensor_type
            if sensor_type not in LOCATION_SENSOR_TYPES or observation.space_id is None:
                continue
            kept_s = retention.get(sensor_type)
            if kept_s is None or timestamp >= now - kept_s:
                best = observation
        if best is None:
            return None
        return LocationEstimate(
            subject_id=subject_id,
            space_id=best.space_id,  # type: ignore[arg-type]
            timestamp=best.timestamp,
            source_sensor_type=best.sensor_type,
            granularity=best.granularity,
        )

    def is_present(self, subject_id: str, now: float, window_s: float = 900.0) -> bool:
        return self.locate(subject_id, now, window_s) is not None

    def people_in(self, space_id: str, now: float, window_s: float = 900.0) -> List[str]:
        """Subjects whose latest location estimate is (in) ``space_id``."""
        latest: Dict[str, Observation] = {}
        for sensor_type in LOCATION_SENSOR_TYPES:
            for observation in self._datastore.query(
                sensor_type=sensor_type, since=self._since(sensor_type, now, window_s)
            ):
                subject = observation.subject_id
                if subject is None or observation.space_id is None:
                    continue
                current = latest.get(subject)
                if current is None or observation.timestamp > current.timestamp:
                    latest[subject] = observation
        result = []
        for subject, observation in latest.items():
            where = observation.space_id
            assert where is not None
            if where == space_id:
                result.append(subject)
            elif (
                self._spatial is not None
                and space_id in self._spatial
                and where in self._spatial
                and self._spatial.contains(space_id, where)
            ):
                result.append(subject)
        return sorted(result)

    # ------------------------------------------------------------------
    # Activity patterns (the Section II-A inference attack)
    # ------------------------------------------------------------------
    def daily_bounds(
        self, subject_id: str, day_index: int
    ) -> Optional[Tuple[float, float]]:
        """(arrival_hour, departure_hour) of one simulated day."""
        day_start = day_index * SECONDS_PER_DAY
        day_end = day_start + SECONDS_PER_DAY
        observations = self._datastore.query(
            subject_id=subject_id, since=day_start, until=day_end
        )
        sightings = [
            obs for obs in observations if obs.sensor_type in LOCATION_SENSOR_TYPES
        ]
        if not sightings:
            return None
        hours = [
            (obs.timestamp - day_start) / SECONDS_PER_HOUR
            for obs in sightings
        ]
        return (min(hours), max(hours))

    def activity_pattern(self, subject_id: str) -> Optional[ActivityPattern]:
        """Mean arrival/departure across every observed day."""
        observations = self._datastore.query(subject_id=subject_id)
        if not observations:
            return None
        days = sorted(
            {
                int(obs.timestamp // SECONDS_PER_DAY)
                for obs in observations
                if obs.sensor_type in LOCATION_SENSOR_TYPES
            }
        )
        arrivals: List[float] = []
        departures: List[float] = []
        for day in days:
            bounds = self.daily_bounds(subject_id, day)
            if bounds is None:
                continue
            arrivals.append(bounds[0])
            departures.append(bounds[1])
        if not arrivals:
            return None
        return ActivityPattern(
            subject_id=subject_id,
            days_observed=len(arrivals),
            mean_arrival_hour=sum(arrivals) / len(arrivals),
            mean_departure_hour=sum(departures) / len(departures),
        )

    def guess_role(self, subject_id: str) -> Optional[str]:
        """The paper's heuristic role inference.

        "Non-faculty staff arrive at 7 am and leave before 5 pm,
        graduate students generally leave the building late, and
        undergrads spend most of the time in classrooms."
        """
        pattern = self.activity_pattern(subject_id)
        if pattern is None:
            return None
        if pattern.mean_arrival_hour < 8.0 and pattern.mean_departure_hour <= 17.5:
            return "staff"
        if pattern.mean_departure_hour >= 19.0:
            return "grad-student"
        return "faculty"
