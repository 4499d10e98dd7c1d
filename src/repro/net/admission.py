"""Overload protection: admission control, priority shedding, brownout.

The ROADMAP's north star is "heavy traffic from millions of users", and
the paper's building serves every inhabitant's IoTA, policy fetches,
and service queries concurrently -- but an unprotected bus accepts
unbounded call volume and the only degraded mode is fail-closed denial.
This module gives the pipeline a *deterministic* graceful-degradation
story instead:

- :class:`Priority` -- three traffic classes.  CRITICAL traffic
  (enforcement decisions, DSAR handling, policy fetches) is never shed;
  NORMAL traffic (queries, captures) is browned out and only shed at
  the hard watermark; DEFERRABLE traffic (notification discovery,
  registry refresh) is shed first.  Occupant studies (Le et al.) show
  notification delivery is the deferrable class -- users prefer a late
  notification to a building that cannot answer a DSAR.
- :class:`TokenBucket` -- a per-principal rate budget, refilled in
  *logical steps* (one step per admission check) rather than wall-clock
  time, so two seeded runs replay identically.
- :class:`TopicQueue` -- a bounded per-target queue model with
  watermark-driven load levels (NOMINAL / BROWNOUT / OVERLOAD).
- :func:`brownout_level` -- between :data:`HIGH_WATERMARK` and
  :data:`SHED_WATERMARK`, responses are served *coarser* along the
  policy language's granularity lattice (precise location -> room ->
  floor -> presence) instead of not at all.  The lattice is carried
  here as wire strings so the net layer stays below ``core`` in the
  import DAG.
- :class:`AdmissionController` -- ties the three together and keeps its
  own shed ledger, mirroring the breaker board's rejection accounting
  so the bus identity ``calls == logical_calls + retries`` survives.

Nothing here reads a clock: load decays one drain quantum per admission
check, probabilistic shedding draws from the controller's seeded RNG,
and injected ``overload_burst`` faults arrive through the same fault
planes the rest of the harness uses.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AdmissionError
from repro.obs.metrics import MetricsRegistry, get_registry


class Priority(enum.Enum):
    """The three traffic classes of the overload-protection layer."""

    CRITICAL = "critical"
    """Enforcement decisions, DSAR handling, policy fetches: never shed."""

    NORMAL = "normal"
    """Service queries and capture traffic: browned out, then shed."""

    DEFERRABLE = "deferrable"
    """Notification discovery and registry refresh: shed first."""


#: Classification of bus methods into priority classes.  The method
#: name, not the target, carries the class: ``get_policy_document`` is
#: CRITICAL whichever endpoint serves it.  Unlisted methods are NORMAL.
DEFAULT_METHOD_PRIORITIES: Dict[str, Priority] = {
    # CRITICAL: the calls a privacy-aware building must never drop.
    "get_policy_document": Priority.CRITICAL,
    "get_settings_document": Priority.CRITICAL,
    "submit_preference": Priority.CRITICAL,
    "submit_selection": Priority.CRITICAL,
    "preview_effects": Priority.CRITICAL,
    "dsar_report": Priority.CRITICAL,
    "dsar_erase": Priority.CRITICAL,
    "register_roaming": Priority.CRITICAL,
    # Migration steps move a principal's policies/preferences/data
    # between shards; shedding one would strand the user mid-migration
    # (fail-closed, so every decision about them would fail too).
    "migrate_export": Priority.CRITICAL,
    "migrate_import": Priority.CRITICAL,
    "migrate_finalize": Priority.CRITICAL,
    # NORMAL: service queries and capture-shaped traffic.
    "locate_user": Priority.NORMAL,
    "room_occupancy": Priority.NORMAL,
    "people_in_space": Priority.NORMAL,
    "occupancy_heatmap": Priority.NORMAL,
    "event_details": Priority.NORMAL,
    "ingest_observation": Priority.NORMAL,
    # DEFERRABLE: discovery sweeps and registry refresh.
    "discover": Priority.DEFERRABLE,
    "publish_resource": Priority.DEFERRABLE,
    "refresh_advertisements": Priority.DEFERRABLE,
    "notify": Priority.DEFERRABLE,
}


#: The brownout axis: each entry degrades to the one after it.  These
#: are the wire spellings of the policy language's GranularityLevel
#: lattice (precise room -> coarse floor -> building-level presence);
#: brownout never degrades past ``building`` -- under load the building
#: serves *coarser* data, never silently no data.
BROWNOUT_LATTICE: Tuple[str, ...] = ("precise", "coarse", "building")

#: Load fraction from which NORMAL calls are browned out and DEFERRABLE
#: calls start to be shed.
HIGH_WATERMARK = 0.5
#: Load fraction from which NORMAL and DEFERRABLE calls are always shed.
SHED_WATERMARK = 0.8
#: The deepest brownout: how many lattice steps a response may coarsen.
MAX_BROWNOUT_LEVELS = 2


class LoadLevel(enum.Enum):
    """A topic queue's position relative to its watermarks."""

    NOMINAL = "nominal"
    BROWNOUT = "brownout"
    OVERLOAD = "overload"


@dataclass
class TokenBucket:
    """A per-principal budget refilled per logical step, not per second.

    ``capacity`` bounds the burst one principal may issue; every
    admission check (any principal's) refills every bucket by
    ``refill_per_step``, so a greedy principal starves itself, not the
    building.
    """

    capacity: float
    refill_per_step: float
    tokens: float = field(init=False)
    synced_step: int = field(default=0, init=False, repr=False, compare=False)
    """The controller step this bucket was last brought up to."""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise AdmissionError("token bucket capacity must be positive")
        if self.refill_per_step < 0:
            raise AdmissionError("refill_per_step must be non-negative")
        self.tokens = self.capacity

    def step(self) -> None:
        self.tokens = min(self.capacity, self.tokens + self.refill_per_step)

    def try_take(self, cost: float = 1.0) -> bool:
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


@dataclass
class TopicQueue:
    """A bounded per-target queue with watermark-driven load levels.

    The queue is a *model* of backlog, not a buffer: each admitted or
    phantom arrival adds one unit of depth, and every admission check
    drains ``drain_per_step`` units (the simulated service rate).  A
    burst arriving faster than the drain rate pushes the load across
    the watermarks; when it subsides, the queue drains back to NOMINAL
    deterministically.
    """

    capacity: int = 64
    drain_per_step: float = 1.0
    depth: float = 0.0
    synced_step: int = field(default=0, init=False, repr=False, compare=False)
    """The controller step this queue was last brought up to."""

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise AdmissionError("queue capacity must be >= 1")
        if self.drain_per_step <= 0:
            raise AdmissionError("drain_per_step must be positive")

    @property
    def load(self) -> float:
        """Backlog as a fraction of capacity, in [0, 1]."""
        return min(1.0, self.depth / self.capacity)

    def level(self) -> LoadLevel:
        if self.load >= SHED_WATERMARK:
            return LoadLevel.OVERLOAD
        if self.load >= HIGH_WATERMARK:
            return LoadLevel.BROWNOUT
        return LoadLevel.NOMINAL

    def drain(self) -> None:
        self.depth = max(0.0, self.depth - self.drain_per_step)

    def arrive(self, units: float = 1.0) -> None:
        if units < 0:
            raise AdmissionError("arrivals cannot be negative")
        self.depth = min(float(self.capacity), self.depth + units)


def brownout_level(load: float) -> int:
    """How far a response at ``load`` degrades along the lattice (0 = none).

    Between the watermarks the degradation deepens linearly: just past
    :data:`HIGH_WATERMARK` responses coarsen one level (precise ->
    coarse), approaching :data:`SHED_WATERMARK` they coarsen
    :data:`MAX_BROWNOUT_LEVELS` (-> building-level presence), which
    never passes :data:`BROWNOUT_LATTICE`'s floor.  The request manager
    walks the lattice when it serves a degraded answer.
    """
    if load < HIGH_WATERMARK:
        return 0
    if load >= SHED_WATERMARK:
        return MAX_BROWNOUT_LEVELS
    ramp = (load - HIGH_WATERMARK) / (SHED_WATERMARK - HIGH_WATERMARK)
    return max(1, min(MAX_BROWNOUT_LEVELS, 1 + int(ramp * MAX_BROWNOUT_LEVELS)))


#: An overload fault plane: consulted once per admission check with
#: ``(target, method)``; returning a positive number injects that many
#: phantom arrivals into the target's topic queue (the harness's
#: ``overload_burst`` fault kind).
OverloadPlane = Callable[[str, str], Optional[int]]


@dataclass(frozen=True)
class AdmissionTicket:
    """The controller's verdict on one logical call."""

    admitted: bool
    priority: Priority
    load: float
    brownout_level: int = 0
    reason: str = ""

    @property
    def browned_out(self) -> bool:
        return self.admitted and self.brownout_level > 0


@dataclass
class AdmissionLedger:
    """The controller's own accounting, read by the metrics registry.

    Shed calls never become bus logical calls (the bus raises before
    its counters), so the ledger is the source of truth for shed rates:
    ``checked == admitted + shed`` always holds.
    """

    checked: int = 0
    admitted: int = 0
    shed: int = 0
    shed_by_class: Dict[str, int] = field(default_factory=dict)
    admitted_by_class: Dict[str, int] = field(default_factory=dict)
    brownouts: int = 0
    injected_arrivals: int = 0


#: The :class:`AdmissionLedger` fields the metrics registry reports.
_TRACKED = {
    "checked": ("admission_checked_total", {}),
    "injected_arrivals": ("admission_injected_arrivals_total", {}),
    "brownouts": ("brownout_responses_total", {}),
}


class AdmissionController:
    """Seeded admission control with priority load shedding.

    One controller guards one bus.  Every :meth:`admit` call is one
    logical step: all topic queues drain one quantum, all principal
    buckets refill one quantum, installed overload planes are consulted
    (injected bursts arrive as phantom backlog), and the verdict is
    computed purely from (seed, call sequence) -- two same-seed runs
    shed the same calls at the same steps.

    The per-step drain and refill are applied lazily, so a check costs
    the same whatever the number of principals: :meth:`admit` only
    advances a step counter, and :meth:`queue` / :meth:`bucket` replay
    the missed one-step updates when they read an object.  The replay
    stops at the first step that leaves the value unchanged (an empty
    queue, a full bucket), which every later step would leave unchanged
    too, so the result is bit-identical to stepping every object on
    every check.  A queue or bucket reference held across checks is
    stale until it is read through the controller again.

    Shedding order under load:

    1. DEFERRABLE calls shed probabilistically once the target's load
       crosses :data:`HIGH_WATERMARK` (the probability ramps 0 -> 1
       toward :data:`SHED_WATERMARK`, drawn from the seeded RNG) and
       always shed past it.
    2. NORMAL calls are admitted *browned out* between the watermarks
       (the ticket carries a granularity-degradation level) and shed
       past :data:`SHED_WATERMARK`.
    3. CRITICAL calls are always admitted, whatever the load.

    :data:`DEFAULT_METHOD_PRIORITIES` assigns each method its class.

    Independently, per-principal token buckets bound what any one
    principal may issue; an exhausted budget sheds that principal's
    NORMAL and DEFERRABLE calls only.
    """

    def __init__(
        self,
        seed: int = 0,
        queue_capacity: int = 64,
        drain_per_step: float = 1.0,
        principal_capacity: float = 8.0,
        principal_refill_per_step: float = 0.5,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.queue_capacity = queue_capacity
        self.drain_per_step = drain_per_step
        self.principal_capacity = principal_capacity
        self.principal_refill_per_step = principal_refill_per_step
        self._step = 0
        self._queues: Dict[str, TopicQueue] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._planes: List[OverloadPlane] = []
        self.ledger = AdmissionLedger()
        self.metrics = metrics if metrics is not None else get_registry()
        self.metrics.track(self.ledger, _TRACKED)

    # ------------------------------------------------------------------
    # Fault planes (the injector's overload_burst hook)
    # ------------------------------------------------------------------
    def install_fault_plane(self, plane: OverloadPlane) -> None:
        """Attach an overload plane (see :data:`OverloadPlane`)."""
        self._planes.append(plane)

    def remove_fault_plane(self, plane: OverloadPlane) -> None:
        if plane in self._planes:
            self._planes.remove(plane)

    # ------------------------------------------------------------------
    # Lazily-created components, brought up to the current step on read
    # ------------------------------------------------------------------
    def queue(self, target: str) -> TopicQueue:
        queue = self._queues.get(target)
        if queue is None:
            queue = TopicQueue(
                capacity=self.queue_capacity, drain_per_step=self.drain_per_step
            )
            queue.synced_step = self._step
            self._queues[target] = queue
        elif queue.synced_step != self._step:
            missed = self._step - queue.synced_step
            queue.synced_step = self._step
            for _ in range(missed):
                before = queue.depth
                queue.drain()
                if queue.depth == before:
                    break
        return queue

    def bucket(self, principal: str) -> TokenBucket:
        bucket = self._buckets.get(principal)
        if bucket is None:
            bucket = TokenBucket(
                capacity=self.principal_capacity,
                refill_per_step=self.principal_refill_per_step,
            )
            bucket.synced_step = self._step
            self._buckets[principal] = bucket
        elif bucket.synced_step != self._step:
            missed = self._step - bucket.synced_step
            bucket.synced_step = self._step
            for _ in range(missed):
                before = bucket.tokens
                bucket.step()
                if bucket.tokens == before:
                    break
        return bucket

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def admit(
        self, target: str, method: str, principal: Optional[str] = None
    ) -> AdmissionTicket:
        """One admission check; advances the controller one logical step.

        The overload planes are consulted first, so a plane that returns
        a negative burst raises :class:`AdmissionError` before the check
        is counted or the step advances.
        """
        bursts = [plane(target, method) for plane in self._planes]
        for burst in bursts:
            if burst and burst < 0:
                raise AdmissionError("arrivals cannot be negative")
        self.ledger.checked += 1
        self._step += 1
        queue = self.queue(target)
        for burst in bursts:
            if burst:
                queue.arrive(burst)
                self.ledger.injected_arrivals += burst
        priority = DEFAULT_METHOD_PRIORITIES.get(method, Priority.NORMAL)
        queue.arrive(1.0)
        load = queue.load
        ticket = self._verdict(target, method, principal, priority, load)
        self._note(target, ticket)
        return ticket

    def _verdict(
        self,
        target: str,
        method: str,
        principal: Optional[str],
        priority: Priority,
        load: float,
    ) -> AdmissionTicket:
        bucket = self.bucket(principal if principal is not None else "_shared")
        in_budget = bucket.try_take(1.0)
        if priority is Priority.CRITICAL:
            # Never shed: a building that cannot answer a DSAR or fetch
            # the policy it must enforce has failed at privacy, not
            # merely at latency.
            return AdmissionTicket(admitted=True, priority=priority, load=load)
        if not in_budget:
            return AdmissionTicket(
                admitted=False,
                priority=priority,
                load=load,
                reason="principal %r over budget" % (principal or "_shared"),
            )
        if priority is Priority.DEFERRABLE:
            if load >= SHED_WATERMARK:
                return self._shed_ticket(priority, load, "past shed watermark")
            if load >= HIGH_WATERMARK:
                ramp = (load - HIGH_WATERMARK) / (SHED_WATERMARK - HIGH_WATERMARK)
                if self._rng.random() < ramp:
                    return self._shed_ticket(
                        priority, load, "deferred under brownout"
                    )
            return AdmissionTicket(admitted=True, priority=priority, load=load)
        # NORMAL: brownout between the watermarks, shed past the hard one.
        if load >= SHED_WATERMARK:
            return self._shed_ticket(priority, load, "past shed watermark")
        return AdmissionTicket(
            admitted=True, priority=priority, load=load,
            brownout_level=brownout_level(load),
        )

    @staticmethod
    def _shed_ticket(priority: Priority, load: float, reason: str) -> AdmissionTicket:
        return AdmissionTicket(
            admitted=False, priority=priority, load=load, reason=reason
        )

    def _note(self, target: str, ticket: AdmissionTicket) -> None:
        labels = {"target": target, "class": ticket.priority.value}
        if ticket.admitted:
            self.ledger.admitted += 1
            by_class = self.ledger.admitted_by_class
            by_class[ticket.priority.value] = by_class.get(ticket.priority.value, 0) + 1
            self.metrics.counter("admission_admitted_total", labels).inc()
            if ticket.brownout_level:
                self.ledger.brownouts += 1
                self.metrics.counter(
                    "brownout_degraded_total", {"target": target}
                ).inc()
        else:
            self.ledger.shed += 1
            by_class = self.ledger.shed_by_class
            by_class[ticket.priority.value] = by_class.get(ticket.priority.value, 0) + 1
            self.metrics.counter("admission_shed_total", labels).inc()
        self.metrics.gauge(
            "admission_queue_load", {"target": target}
        ).set(round(ticket.load, 6))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def loads(self) -> Dict[str, float]:
        """Current per-topic load fractions, stable order."""
        return {
            target: round(self.queue(target).load, 6)
            for target in sorted(self._queues)
        }

    def levels(self) -> Dict[str, str]:
        return {
            target: self.queue(target).level().value
            for target in sorted(self._queues)
        }
