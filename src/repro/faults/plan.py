"""Deterministic fault plans and the traces they produce.

A :class:`FaultPlan` is a seeded schedule of faults over *logical
steps*: the injector advances one step per intercepted operation (a bus
transport attempt, a datastore write, a sensor sample, a policy fetch),
and each :class:`FaultSpec` decides -- purely from the step number, its
target selector, and the plan's seeded RNG -- whether it fires there.
Two runs that perform the same operations under the same plan therefore
fire the same faults at the same steps and produce byte-identical
:class:`FaultTrace` text, which is the property the chaos regression
suite pins.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import FaultError


class FaultKind(enum.Enum):
    """The taxonomy of injectable faults (see docs/RESILIENCE.md)."""

    DROP = "drop"
    """Bus: the message is lost in transit."""

    LATENCY = "latency"
    """Bus: a simulated latency spike is charged to the attempt."""

    CORRUPT = "corrupt"
    """Bus: the payload is mangled so decoding fails."""

    CRASH = "crash"
    """Bus: the target endpoint is offline while the spec is active;
    the window's end is the restart."""

    STORE_WRITE_FAIL = "store_write_fail"
    """Datastore: a write (insert or erasure) fails."""

    SENSOR_STALL = "sensor_stall"
    """Sensors: the sensor produces no observations this sample."""

    POLICY_FETCH_FAIL = "policy_fetch_fail"
    """Rule store: fetching candidate policies fails (the enforcement
    engine must fail closed)."""

    TORN_WRITE = "torn_write"
    """WAL: the process crashes mid-write, leaving a partial frame on
    disk; the record is lost and recovery truncates the tear."""

    CRASH_MID_APPEND = "crash_mid_append"
    """WAL: the process crashes after the frame is durable but before
    the in-memory apply; recovery replays the record."""

    OVERLOAD_BURST = "overload_burst"
    """Admission: ``magnitude`` phantom arrivals land in the target's
    topic queue, driving its load toward the watermarks."""

    CRASH_MID_MIGRATION = "crash_mid_migration"
    """Rebalance: the shard executing the current migration step
    crashes (source on ``copy``/``finalize``, destination on
    ``import``); WAL replay must resume the migration."""

    CUTOVER_PARTITION = "cutover_partition"
    """Rebalance: the cross-shard link is partitioned at the current
    migration step; the step is skipped, the user stays mid-migration
    (fail-closed), and the coordinator retries after the window."""


#: Which fault kinds each injection site consumes.
BUS_KINDS = frozenset(
    {FaultKind.DROP, FaultKind.LATENCY, FaultKind.CORRUPT, FaultKind.CRASH}
)
DATASTORE_KINDS = frozenset({FaultKind.STORE_WRITE_FAIL})
SENSOR_KINDS = frozenset({FaultKind.SENSOR_STALL})
POLICY_KINDS = frozenset({FaultKind.POLICY_FETCH_FAIL})
WAL_KINDS = frozenset({FaultKind.TORN_WRITE, FaultKind.CRASH_MID_APPEND})
ADMISSION_KINDS = frozenset({FaultKind.OVERLOAD_BURST})
MIGRATION_KINDS = frozenset(
    {FaultKind.CRASH_MID_MIGRATION, FaultKind.CUTOVER_PARTITION}
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Scheduling composes three deterministic triggers inside the active
    window ``[start, stop)``:

    - ``at_steps`` -- fire at exactly these logical steps;
    - ``every``/``phase`` -- fire when ``step % every == phase % every``;
    - ``rate`` -- fire with this probability, drawn from the *plan's*
      seeded RNG (deterministic given the operation sequence).

    A spec with none of the three fires on **every** step in its window
    (the idiom for crash windows).  ``target`` selects what the fault
    applies to -- an endpoint name, sensor id/type, datastore operation
    (``insert``/``forget``), or ``"*"`` for everything at the site.
    """

    kind: FaultKind
    target: str = "*"
    at_steps: Tuple[int, ...] = ()
    every: int = 0
    phase: int = 0
    start: int = 0
    stop: Optional[int] = None
    rate: float = 0.0
    latency_s: float = 0.0
    magnitude: int = 0

    def __post_init__(self) -> None:
        if self.every < 0:
            raise FaultError("every must be non-negative")
        if self.start < 0:
            raise FaultError("start must be non-negative")
        if self.stop is not None and self.stop <= self.start:
            raise FaultError("stop must be greater than start")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError("rate must lie in [0, 1]")
        if self.latency_s < 0:
            raise FaultError("latency_s must be non-negative")
        if self.kind is FaultKind.LATENCY and self.latency_s == 0:
            raise FaultError("a latency fault needs latency_s > 0")
        if self.magnitude < 0:
            raise FaultError("magnitude must be non-negative")
        if self.kind is FaultKind.OVERLOAD_BURST and self.magnitude == 0:
            raise FaultError("an overload_burst fault needs magnitude > 0")

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def matches_target(self, candidates: Sequence[str]) -> bool:
        return self.target == "*" or self.target in candidates

    def in_window(self, step: int) -> bool:
        if step < self.start:
            return False
        return self.stop is None or step < self.stop

    @property
    def unconditional(self) -> bool:
        """Fires on every in-window step (no schedule, no rate)."""
        return not self.at_steps and not self.every and not self.rate

    def scheduled_at(self, step: int) -> bool:
        """The deterministic (non-rate) part of the trigger."""
        if step in self.at_steps:
            return True
        if self.every and step % self.every == self.phase % self.every:
            return True
        return self.unconditional

    # ------------------------------------------------------------------
    # Serialization (docs/RESILIENCE.md carries a JSON example)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind.value, "target": self.target}
        if self.at_steps:
            data["at_steps"] = list(self.at_steps)
        if self.every:
            data["every"] = self.every
            data["phase"] = self.phase
        if self.start:
            data["start"] = self.start
        if self.stop is not None:
            data["stop"] = self.stop
        if self.rate:
            data["rate"] = self.rate
        if self.latency_s:
            data["latency_s"] = self.latency_s
        if self.magnitude:
            data["magnitude"] = self.magnitude
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        try:
            kind = FaultKind(data["kind"])
        except (KeyError, ValueError) as exc:
            raise FaultError("bad fault spec kind: %s" % exc) from None
        return cls(
            kind=kind,
            target=str(data.get("target", "*")),
            at_steps=tuple(int(s) for s in data.get("at_steps", ())),
            every=int(data.get("every", 0)),
            phase=int(data.get("phase", 0)),
            start=int(data.get("start", 0)),
            stop=None if data.get("stop") is None else int(data["stop"]),
            rate=float(data.get("rate", 0.0)),
            latency_s=float(data.get("latency_s", 0.0)),
            magnitude=int(data.get("magnitude", 0)),
        )


class FaultPlan:
    """A named, seeded collection of fault specs.

    The plan owns the RNG behind rate-based specs, so the full fault
    sequence is a function of ``(seed, operation sequence)`` alone.
    """

    def __init__(
        self, specs: Iterable[FaultSpec], seed: int = 0, name: str = "custom"
    ) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.name = name
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return len(self.specs)

    def matching(
        self, step: int, kinds: frozenset, targets: Sequence[str]
    ) -> List[FaultSpec]:
        """The specs that fire at ``step`` for one of ``targets``.

        Rate draws happen here, one per eligible rate-spec, in spec
        order -- deterministic for a fixed operation sequence.
        """
        fired: List[FaultSpec] = []
        for spec in self.specs:
            if spec.kind not in kinds:
                continue
            if not spec.matches_target(targets):
                continue
            if not spec.in_window(step):
                continue
            if spec.scheduled_at(step):
                fired.append(spec)
            elif spec.rate and self._rng.random() < spec.rate:
                fired.append(spec)
        return fired

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultError("fault plan must be a JSON object")
        specs = data.get("specs")
        if not isinstance(specs, list) or not specs:
            raise FaultError("fault plan needs a non-empty 'specs' list")
        return cls(
            specs=[FaultSpec.from_dict(entry) for entry in specs],
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "custom")),
        )


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    step: int
    site: str
    kind: str
    target: str
    detail: str = ""

    def line(self) -> str:
        suffix = " %s" % self.detail if self.detail else ""
        return "step=%06d site=%s kind=%s target=%s%s" % (
            self.step, self.site, self.kind, self.target, suffix,
        )


@dataclass
class FaultTrace:
    """The ordered record of every injected fault in one run."""

    events: List[FaultEvent] = field(default_factory=list)

    def record(
        self, step: int, site: str, kind: FaultKind, target: str, detail: str = ""
    ) -> FaultEvent:
        event = FaultEvent(
            step=step, site=site, kind=kind.value, target=target, detail=detail
        )
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def lines(self) -> List[str]:
        return [event.line() for event in self.events]

    def to_text(self) -> str:
        """A stable textual rendering; byte-identical across seeded runs."""
        return "".join(line + "\n" for line in self.lines())

    def counts(self) -> Dict[str, int]:
        by_kind: Dict[str, int] = {}
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return by_kind
