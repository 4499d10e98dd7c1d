"""The building's observation store.

An embedded time-series store: observations are appended per sensor
type (streams arrive in timestamp order from the simulation clock) and
queried by type, space, subject, and time window.  Retention sweeping
implements the ``retention`` element of building policies: observations
older than their stream's retention are purged.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import StorageError
from repro.sensors.base import Observation

#: A storage-level interception point: called with the write operation
#: name (``insert``/``forget``) and a detail string; returning a truthy
#: value fails the write with :class:`~repro.errors.StorageError`.
WritePlane = Callable[[str, str], bool]


class Datastore:
    """In-memory observation streams with windowed queries."""

    def __init__(self) -> None:
        self._streams: Dict[str, List[Observation]] = defaultdict(list)
        self._by_subject: Dict[str, List[Observation]] = defaultdict(list)
        self.total_inserted = 0
        self.total_purged = 0
        self.total_write_failures = 0
        self._fault_planes: List[WritePlane] = []

    # ------------------------------------------------------------------
    # Fault planes
    # ------------------------------------------------------------------
    def install_fault_plane(self, plane: WritePlane) -> None:
        """Attach a write-failure plane (see :data:`WritePlane`)."""
        self._fault_planes.append(plane)

    def remove_fault_plane(self, plane: WritePlane) -> None:
        if plane in self._fault_planes:
            self._fault_planes.remove(plane)

    def _guard_write(self, op: str, detail: str) -> None:
        """Fail the write if any installed plane says so.

        The failure happens *before* any mutation, so a faulted write
        leaves the store exactly as it was (tests rely on this for the
        mid-DSAR consistency check).
        """
        for plane in self._fault_planes:
            if plane(op, detail):
                self.total_write_failures += 1
                raise StorageError(
                    "injected write failure: %s %r" % (op, detail)
                )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, observation: Observation) -> None:
        """Append an observation to its sensor-type stream.

        Streams tolerate slightly out-of-order arrivals by inserting at
        the timestamp-sorted position.
        """
        self._guard_write("insert", observation.sensor_type)
        self._apply_insert(observation)

    def _apply_insert(self, observation: Observation) -> None:
        """The mutation half of :meth:`insert` (no write guard).

        Durable backends call the guard, then write-ahead-log the
        observation, then apply; recovery replay applies directly.
        """
        stream = self._streams[observation.sensor_type]
        if stream and stream[-1].timestamp > observation.timestamp:
            index = bisect.bisect_right(
                [obs.timestamp for obs in stream], observation.timestamp
            )
            stream.insert(index, observation)
        else:
            stream.append(observation)
        if observation.subject_id is not None:
            self._by_subject[observation.subject_id].append(observation)
        self.total_inserted += 1

    def insert_many(self, observations: Iterable[Observation]) -> int:
        count = 0
        for observation in observations:
            self.insert(observation)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def query(
        self,
        sensor_type: Optional[str] = None,
        space_id: Optional[str] = None,
        subject_id: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
        predicate: Optional[Callable[[Observation], bool]] = None,
    ) -> List[Observation]:
        """Observations matching all provided filters, oldest first.

        ``since`` is inclusive, ``until`` exclusive.  ``limit`` keeps
        the *newest* matches (the common "last N readings" query).
        """
        if since is not None and until is not None and since >= until:
            raise StorageError("empty window: since %r >= until %r" % (since, until))
        if subject_id is not None:
            candidates: Iterable[Observation] = self._by_subject.get(subject_id, [])
        elif sensor_type is not None:
            candidates = self._streams.get(sensor_type, [])
        else:
            candidates = (
                obs for stream in self._streams.values() for obs in stream
            )
        matches = []
        for observation in candidates:
            if sensor_type is not None and observation.sensor_type != sensor_type:
                continue
            if space_id is not None and observation.space_id != space_id:
                continue
            if since is not None and observation.timestamp < since:
                continue
            if until is not None and observation.timestamp >= until:
                continue
            if predicate is not None and not predicate(observation):
                continue
            matches.append(observation)
        matches.sort(key=lambda obs: (obs.timestamp, obs.observation_id))
        if limit is not None and len(matches) > limit:
            matches = matches[-limit:]
        return matches

    def of_subject(self, subject_id: str) -> Sequence[Observation]:
        """Every observation attributed to ``subject_id``, in insertion order.

        Unsorted and unfiltered, for one-pass readers; the sequence is
        the store's own, so callers must not mutate it.
        """
        return self._by_subject.get(subject_id, ())

    def latest(
        self,
        sensor_type: Optional[str] = None,
        space_id: Optional[str] = None,
        subject_id: Optional[str] = None,
    ) -> Optional[Observation]:
        """The newest observation matching the filters, if any."""
        matches = self.query(
            sensor_type=sensor_type,
            space_id=space_id,
            subject_id=subject_id,
            limit=1,
        )
        return matches[-1] if matches else None

    def stream_names(self) -> List[str]:
        return sorted(name for name, stream in self._streams.items() if stream)

    def count(self, sensor_type: Optional[str] = None) -> int:
        if sensor_type is not None:
            return len(self._streams.get(sensor_type, []))
        return sum(len(stream) for stream in self._streams.values())

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def sweep(self, now: float, retention_by_type: Dict[str, float]) -> int:
        """Purge observations past their stream's retention.

        ``retention_by_type`` maps sensor type to retention seconds;
        streams without an entry are kept indefinitely.  Returns the
        number of purged observations.
        """
        purged = 0
        for sensor_type, retention in retention_by_type.items():
            if retention < 0:
                raise StorageError("negative retention for %r" % sensor_type)
            stream = self._streams.get(sensor_type)
            if not stream:
                continue
            cutoff = now - retention
            index = bisect.bisect_left([obs.timestamp for obs in stream], cutoff)
            if index == 0:
                continue
            doomed = stream[:index]
            self._streams[sensor_type] = stream[index:]
            purged += len(doomed)
            doomed_ids = {obs.observation_id for obs in doomed}
            for subject_id in {o.subject_id for o in doomed if o.subject_id}:
                self._by_subject[subject_id] = [
                    obs
                    for obs in self._by_subject[subject_id]
                    if obs.observation_id not in doomed_ids
                ]
        self.total_purged += purged
        return purged

    def forget_subject(self, subject_id: str) -> int:
        """Delete every observation attributed to ``subject_id``.

        The building-side primitive behind a user's full opt-out
        (a right-to-erasure analogue).
        """
        self._guard_write("forget", subject_id)
        return self._apply_forget(subject_id)

    def _apply_forget(self, subject_id: str) -> int:
        """The mutation half of :meth:`forget_subject` (no write guard)."""
        doomed = self._by_subject.pop(subject_id, [])
        doomed_ids = {obs.observation_id for obs in doomed}
        if doomed_ids:
            for sensor_type, stream in self._streams.items():
                self._streams[sensor_type] = [
                    obs for obs in stream if obs.observation_id not in doomed_ids
                ]
        self.total_purged += len(doomed)
        return len(doomed)
