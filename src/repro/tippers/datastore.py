"""The building's observation store.

An embedded time-series store.  Every observation sits in up to three
indexes, each kept in query order -- ``(timestamp, observation_id)`` --
beside a parallel list of its timestamps:

* its sensor type's *stream*;
* its (sensor type, space) *cell* inside that stream, when it has a
  space;
* its subject's *history*, when it is attributed to someone.

A read picks the index its filters name, finds its time window with
``bisect`` and, with a ``limit``, scans newest-first and stops early, so
it costs about what it returns however much history the store keeps.
Observations arrive in order from the simulation clock; such an insert
is one lookup and one append per index, and a late one is placed by
bisection.  Retention sweeping implements the ``retention`` element of
building policies: observations older than their stream's retention are
cut from the front of every index that holds them.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import StorageError
from repro.sensors.base import Observation

#: A storage-level interception point: called with the write operation
#: name (``insert``/``forget``) and a detail string; returning a truthy
#: value fails the write with :class:`~repro.errors.StorageError`.
WritePlane = Callable[[str, str], bool]

#: The cutoff of a stream a sweep leaves alone.
_KEEP = float("-inf")


class _Series:
    """Observations in query order beside their timestamps."""

    __slots__ = ("observations", "times")

    def __init__(self) -> None:
        self.observations: List[Observation] = []
        self.times: List[float] = []

    def place(self, observation: Observation) -> None:
        """Insert ``observation`` at its position in query order."""
        times = self.times
        timestamp = observation.timestamp
        index = bisect.bisect_right(times, timestamp)
        ties = bisect.bisect_left(times, timestamp, 0, index)
        observations = self.observations
        while (
            index > ties
            and observations[index - 1].observation_id > observation.observation_id
        ):
            index -= 1
        observations.insert(index, observation)
        times.insert(index, timestamp)

    def cut(self, cutoff: float) -> int:
        """Drop every observation older than ``cutoff``; how many went."""
        index = bisect.bisect_left(self.times, cutoff)
        if index:
            del self.observations[:index]
            del self.times[:index]
        return index

    def drop(self, doomed: Sequence[Observation]) -> None:
        """Remove ``doomed``, a subsequence of this series in its order."""
        observations = self.observations
        times = self.times
        kept: List[Observation] = []
        kept_times: List[float] = []
        start = 0
        for observation in doomed:
            index = bisect.bisect_left(times, observation.timestamp, start)
            while observations[index] is not observation:
                index += 1
            kept += observations[start:index]
            kept_times += times[start:index]
            start = index + 1
        kept += observations[start:]
        kept_times += times[start:]
        self.observations = kept
        self.times = kept_times


class _Stream(_Series):
    """One sensor type's observations, and a cell per space."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        super().__init__()
        #: space_id -> that space's observations; never empty.
        self.cells: Dict[str, _Series] = {}


class Datastore:
    """In-memory observation streams with windowed queries."""

    def __init__(self) -> None:
        self._streams: Dict[str, _Stream] = {}
        #: subject_id -> that subject's observations; never empty.
        self._by_subject: Dict[str, _Series] = {}
        # The newest (timestamp, observation_id) inserted: an
        # observation past it is appended to every index.  Purges leave
        # it alone, which only sends a few inserts down the bisect path.
        self._last_time = float("-inf")
        self._last_id = 0
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
        """Add an observation to its stream, cell and subject history.

        Streams tolerate out-of-order arrivals by inserting at the
        sorted position.
        """
        self._guard_write("insert", observation.sensor_type)
        self._apply_insert(observation)

    def _apply_insert(self, observation: Observation) -> None:
        """The mutation half of :meth:`insert` (no write guard).

        Durable backends call the guard, then write-ahead-log the
        observation, then apply; recovery replay applies directly.
        """
        stream = self._streams.get(observation.sensor_type)
        if stream is None:
            stream = self._streams[observation.sensor_type] = _Stream()
        space_id = observation.space_id
        cell = None
        if space_id is not None:
            cell = stream.cells.get(space_id)
            if cell is None:
                cell = stream.cells[space_id] = _Series()
        subject_id = observation.subject_id
        history = None
        if subject_id is not None:
            history = self._by_subject.get(subject_id)
            if history is None:
                history = self._by_subject[subject_id] = _Series()
        timestamp = observation.timestamp
        if timestamp > self._last_time or (
            timestamp == self._last_time
            and observation.observation_id > self._last_id
        ):
            # The newest reading so far: it goes last in every index.
            self._last_time = timestamp
            self._last_id = observation.observation_id
            stream.observations.append(observation)
            stream.times.append(timestamp)
            if cell is not None:
                cell.observations.append(observation)
                cell.times.append(timestamp)
            if history is not None:
                history.observations.append(observation)
                history.times.append(timestamp)
        else:
            stream.place(observation)
            if cell is not None:
                cell.place(observation)
            if history is not None:
                history.place(observation)
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

        A query names a ``subject_id`` (read from that subject's
        history) or a ``sensor_type`` (read from its stream, or from
        its cell with a ``space_id``).  ``since`` is inclusive,
        ``until`` exclusive.  ``limit`` (at least 1) keeps the *newest*
        matches (the common "last N readings" query).  Among equal
        timestamps, the lower ``observation_id`` comes first.
        """
        if since is not None and until is not None and since >= until:
            raise StorageError("empty window: since %r >= until %r" % (since, until))
        if limit is not None and limit < 1:
            raise StorageError("limit must be at least 1, not %r" % limit)
        series: Optional[_Series]
        if subject_id is not None:
            series = self._by_subject.get(subject_id)
        elif sensor_type is not None:
            stream = self._streams.get(sensor_type)
            series = stream
            if stream is not None and space_id is not None:
                series = stream.cells.get(space_id)
            sensor_type = space_id = None  # the index applied both
        else:
            raise ValueError("a query names a sensor_type or a subject_id")
        if series is None:
            return []
        times = series.times
        lo = 0 if since is None else bisect.bisect_left(times, since)
        hi = len(times) if until is None else bisect.bisect_left(times, until, lo)
        observations = series.observations
        if sensor_type is None and space_id is None and predicate is None:
            if limit is not None and hi - lo > limit:
                lo = hi - limit
            return observations[lo:hi]
        matches: List[Observation] = []
        for index in range(hi - 1, lo - 1, -1):
            observation = observations[index]
            if sensor_type is not None and observation.sensor_type != sensor_type:
                continue
            if space_id is not None and observation.space_id != space_id:
                continue
            if predicate is not None and not predicate(observation):
                continue
            matches.append(observation)
            if len(matches) == limit:
                break
        matches.reverse()
        return matches

    def of_subject(self, subject_id: str) -> Sequence[Observation]:
        """Every observation attributed to ``subject_id``, in query order.

        Unfiltered, for readers that scan it newest-first and stop; the
        sequence is the store's own, so callers must not mutate it.
        """
        history = self._by_subject.get(subject_id)
        return () if history is None else history.observations

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
        return sorted(name for name, stream in self._streams.items() if stream.times)

    def count(self, sensor_type: Optional[str] = None) -> int:
        if sensor_type is not None:
            stream = self._streams.get(sensor_type)
            return 0 if stream is None else len(stream.times)
        return sum(len(stream.times) for stream in self._streams.values())

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def sweep(self, now: float, retention_by_type: Dict[str, float]) -> int:
        """Purge observations past their stream's retention.

        ``retention_by_type`` maps sensor type to retention seconds;
        streams without an entry are kept indefinitely.  Every retention
        is checked before anything is purged, so a refused sweep leaves
        the store as it was.  Returns the number of purged observations.
        """
        for sensor_type, retention in retention_by_type.items():
            if retention < 0:
                raise StorageError("negative retention for %r" % sensor_type)
        purged = 0
        cutoffs: Dict[str, float] = {}
        for sensor_type, retention in retention_by_type.items():
            stream = self._streams.get(sensor_type)
            if stream is None:
                continue
            cutoff = now - retention
            dropped = stream.cut(cutoff)
            if not dropped:
                continue
            purged += dropped
            cutoffs[sensor_type] = cutoff
            for space_id, cell in list(stream.cells.items()):
                if cell.times[0] < cutoff:
                    cell.cut(cutoff)
                    if not cell.times:
                        del stream.cells[space_id]
        if cutoffs:
            self._cut_histories(cutoffs)
        self.total_purged += purged
        return purged

    def _cut_histories(self, cutoffs: Dict[str, float]) -> None:
        """Drop from every subject history what a sweep cut from streams."""
        latest = max(cutoffs.values())
        emptied = []
        for subject_id, history in self._by_subject.items():
            end = bisect.bisect_left(history.times, latest)
            if not end:
                continue
            kept = [
                observation
                for observation in history.observations[:end]
                if observation.timestamp >= cutoffs.get(observation.sensor_type, _KEEP)
            ]
            history.observations[:end] = kept
            history.times[:end] = [observation.timestamp for observation in kept]
            if not history.times:
                emptied.append(subject_id)
        for subject_id in emptied:
            del self._by_subject[subject_id]

    def forget_subject(self, subject_id: str) -> int:
        """Delete every observation attributed to ``subject_id``.

        The building-side primitive behind a user's full opt-out
        (a right-to-erasure analogue).
        """
        self._guard_write("forget", subject_id)
        return self._apply_forget(subject_id)

    def _apply_forget(self, subject_id: str) -> int:
        """The mutation half of :meth:`forget_subject` (no write guard).

        The subject's history names the observations to remove; each
        stream and cell they sit in drops them and keeps the rest.
        """
        history = self._by_subject.pop(subject_id, None)
        if history is None:
            return 0
        doomed = history.observations
        by_type: Dict[str, List[Observation]] = {}
        for observation in doomed:
            by_type.setdefault(observation.sensor_type, []).append(observation)
        for sensor_type, readings in by_type.items():
            stream = self._streams[sensor_type]
            stream.drop(readings)
            by_space: Dict[str, List[Observation]] = {}
            for observation in readings:
                if observation.space_id is not None:
                    by_space.setdefault(observation.space_id, []).append(observation)
            for space_id, in_space in by_space.items():
                cell = stream.cells[space_id]
                cell.drop(in_space)
                if not cell.times:
                    del stream.cells[space_id]
        self.total_purged += len(doomed)
        return len(doomed)
