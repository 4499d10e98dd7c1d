"""The request manager: the sharing path of TIPPERS.

Steps (9) and (10) of Figure 1: "If a service later requests TIPPERS
about Mary's location, the request will be processed according to the
settings communicated by Mary's IoTA to TIPPERS (e.g., the request
might be rejected, if Mary's IoTA requested to opt-out of location
sharing)."

Every query is turned into one or more sharing requests
(``engine.sharing_key``), resolved by the enforcement engine, and only
then answered from the inference engine -- with results degraded to
the granted granularity.  Each goes to the engine's ``decide_key`` as
a key, so a request a compiled row already answers is served without
building its :class:`~repro.core.policy.base.DataRequest`.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.enforcement.engine import EnforcementEngine, sharing_key
from repro.core.enforcement.mechanisms import coarsen_space
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import RequesterKind
from repro.errors import ServiceError, StorageError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.spatial.model import SpatialModel
from repro.tippers.inference import InferenceEngine, LocationEstimate
from repro.tippers.policy_manager import PolicyManager
from repro.tippers.social import SocialInference
from repro.users.profile import UserDirectory


@dataclass(frozen=True)
class QueryResponse:
    """The outcome of one service query."""

    allowed: bool
    value: object = None
    granularity: GranularityLevel = GranularityLevel.NONE
    reasons: Tuple[str, ...] = ()

    @staticmethod
    def denied(reasons: Tuple[str, ...]) -> "QueryResponse":
        return QueryResponse(allowed=False, reasons=reasons)


def _brownout_granularity(
    granularity: GranularityLevel, levels: int
) -> GranularityLevel:
    """``granularity`` degraded ``levels`` ranks down the lattice.

    The brownout floor is BUILDING-level presence: under overload the
    building serves *coarser* answers, never silently none, matching
    the paper's granularity element (precise room -> floor ->
    building).  Requests already at or below the floor pass through.
    """
    if levels <= 0 or granularity.rank <= GranularityLevel.BUILDING.rank:
        return granularity
    target = max(GranularityLevel.BUILDING.rank, granularity.rank - levels)
    for candidate in GranularityLevel:
        if candidate.rank == target:
            return candidate
    return granularity


_Q = TypeVar("_Q", bound=Callable)


def _instrumented_query(fn: _Q) -> _Q:
    """Count and time one public query method of the request manager.

    Counts are labelled by method and outcome (allowed/denied/error) so
    service-facing deny rates are readable straight off the registry.
    Each handle is bound on first use and reused from the manager's
    ``_query_handles``, so a series appears only once it has a sample.
    """
    seconds = (fn.__name__, None)
    allowed = (fn.__name__, "allowed")
    denied = (fn.__name__, "denied")
    error = (fn.__name__, "error")

    @functools.wraps(fn)
    def wrapper(self: "RequestManager", *args: object, **kwargs: object) -> QueryResponse:
        handles = self._query_handles
        start = time.perf_counter()
        try:
            response = fn(self, *args, **kwargs)
        except Exception:
            (handles.get(error) or self._bind_query_handle(error)).inc()
            raise
        finally:
            (handles.get(seconds) or self._bind_query_handle(seconds)).observe(
                time.perf_counter() - start
            )
        outcome = allowed if response.allowed else denied
        (handles.get(outcome) or self._bind_query_handle(outcome)).inc()
        return response

    return wrapper  # type: ignore[return-value]


class RequestManager:
    """Service-facing query API, fully policy-checked."""

    def __init__(
        self,
        engine: EnforcementEngine,
        inference: InferenceEngine,
        directory: UserDirectory,
        spatial: SpatialModel,
        policy_manager: PolicyManager,
        social: Optional[SocialInference] = None,
        metrics: Optional[MetricsRegistry] = None,
        roaming_lookup: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        self._engine = engine
        self._inference = inference
        self._directory = directory
        self._spatial = spatial
        self._policy_manager = policy_manager
        self._social = social
        self.metrics = metrics if metrics is not None else get_registry()
        #: subject_id -> home building for federation visitors; ``None``
        #: (or a lookup returning None) means the subject is local.
        self._roaming_lookup = roaming_lookup
        #: ``(method, outcome)`` -> its ``tippers_queries_total`` counter,
        #: ``(method, None)`` -> its ``tippers_query_seconds`` histogram.
        self._query_handles: Dict[Tuple[str, Optional[str]], Any] = {}

    def _bind_query_handle(self, key: Tuple[str, Optional[str]]) -> Any:
        """Resolve and keep the query metric handle for ``key``."""
        method, outcome = key
        if outcome is None:
            handle = self.metrics.histogram(
                "tippers_query_seconds", {"method": method}
            )
        else:
            handle = self.metrics.counter(
                "tippers_queries_total", {"method": method, "outcome": outcome}
            )
        self._query_handles[key] = handle
        return handle

    def _roaming_notes(self, subject_id: Optional[str]) -> Tuple[str, ...]:
        """An audit marker when the subject is a roaming visitor.

        Decisions a visited shard makes about a roaming principal carry
        ``roaming:<home>`` in both the response reasons and the audit
        record, so a campus audit can always attribute a visited-shard
        decision back to the subject's home building.
        """
        if self._roaming_lookup is None or subject_id is None:
            return ()
        home = self._roaming_lookup(subject_id)
        if home is None:
            return ()
        self.metrics.counter(
            "tippers_roaming_decisions_total", {"method": "all"}
        ).inc()
        return ("roaming:%s" % home,)

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    def _degraded(
        self,
        method: str,
        exc: StorageError,
        now: float,
        subject_id: Optional[str] = None,
    ) -> QueryResponse:
        """A denied response for a query whose backing store faulted.

        Privacy-sensitive data is never released on a best-effort basis:
        if the datastore (or an inference over it) fails mid-query, the
        service gets a denial, not a partial answer.  The denial is
        audited through the engine so degraded operation never thins
        the audit trail.
        """
        self.metrics.counter(
            "tippers_degraded_total", {"method": method}
        ).inc()
        reasons = self._engine.audit_degraded_denial(
            method, exc, now, subject_id=subject_id
        )
        return QueryResponse.denied(reasons)

    # ------------------------------------------------------------------
    # Location queries (the paper's step 9/10 example)
    # ------------------------------------------------------------------
    @_instrumented_query
    def locate_user(
        self,
        requester_id: str,
        requester_kind: RequesterKind,
        subject_id: str,
        now: float,
        purpose: Purpose = Purpose.PROVIDING_SERVICE,
        granularity: GranularityLevel = GranularityLevel.PRECISE,
        brownout_level: int = 0,
        extra_notes: Tuple[str, ...] = (),
    ) -> QueryResponse:
        """Where is ``subject_id`` right now?

        The location is read first, because the decision key carries
        the estimated space; nothing is released before the decision,
        and a denied request gets no part of the estimate.  When
        allowed at a coarser granularity, the location is coarsened
        before release.

        ``brownout_level`` > 0 marks an admission-control brownout: the
        requested granularity is degraded that many lattice ranks
        (floored at building-level presence) and the decision is audited
        with an explicit degradation marker, so browned-out answers stay
        distinguishable in the audit trail.

        ``extra_notes`` are appended to the decision notes verbatim --
        the federation router uses this to stamp the
        ``migrating:<from>:<to>`` marker onto every decision served for
        a mid-migration subject, so forwarded decisions stay
        distinguishable in both the response reasons and the audit
        trail.
        """
        if subject_id not in self._directory:
            raise ServiceError("unknown user %r" % subject_id)
        notes: Tuple[str, ...] = ()
        if brownout_level > 0:
            degraded = _brownout_granularity(granularity, brownout_level)
            notes = (
                "brownout degraded response (level %d): granularity %s -> %s"
                % (brownout_level, granularity.value, degraded.value),
            )
            granularity = degraded
            self.metrics.counter(
                "brownout_queries_total", {"method": "locate_user"}
            ).inc()
        notes += self._roaming_notes(subject_id)
        notes += tuple(extra_notes)
        try:
            estimate = self._inference.locate(subject_id, now)
        except StorageError as exc:
            return self._degraded("locate_user", exc, now, subject_id)
        resolution = self._engine.decide_key(
            sharing_key(
                requester_id,
                requester_kind,
                DataCategory.LOCATION,
                subject_id,
                estimate.space_id if estimate is not None else None,
                purpose,
                granularity,
            ),
            now,
            notes,
        )
        if not resolution.allowed:
            return QueryResponse.denied(resolution.reasons)
        if estimate is None:
            return QueryResponse(
                allowed=True,
                value=None,
                granularity=resolution.granularity,
                reasons=resolution.reasons,
            )
        released_space = coarsen_space(
            estimate.space_id, resolution.granularity, self._spatial
        )
        value = estimate  # released as read: no second frozen dataclass
        if (
            released_space != estimate.space_id
            or resolution.granularity.value != estimate.granularity
        ):
            value = LocationEstimate(
                subject_id=subject_id,
                space_id=released_space if released_space is not None else "unknown",
                timestamp=estimate.timestamp,
                source_sensor_type=estimate.source_sensor_type,
                granularity=resolution.granularity.value,
            )
        return QueryResponse(
            allowed=True,
            value=value,
            granularity=resolution.granularity,
            reasons=resolution.reasons,
        )

    # ------------------------------------------------------------------
    # Occupancy queries (Preference 1's target)
    # ------------------------------------------------------------------
    @_instrumented_query
    def room_occupancy(
        self,
        requester_id: str,
        requester_kind: RequesterKind,
        space_id: str,
        now: float,
        purpose: Purpose = Purpose.PROVIDING_SERVICE,
        extra_notes: Tuple[str, ...] = (),
    ) -> QueryResponse:
        """Is ``space_id`` occupied?

        When the room is someone's assigned office, the occupancy status
        is *their* personal data: the decision is made with them as the
        subject, which is exactly what makes Preference 1 enforceable.
        """
        if space_id not in self._spatial:
            raise ServiceError("unknown space %r" % space_id)
        subject_id = self._directory.office_owner(space_id)
        resolution = self._engine.decide_key(
            sharing_key(
                requester_id,
                requester_kind,
                DataCategory.OCCUPANCY,
                subject_id,
                space_id,
                purpose,
            ),
            now,
            self._roaming_notes(subject_id) + tuple(extra_notes),
        )
        if not resolution.allowed:
            return QueryResponse.denied(resolution.reasons)
        try:
            occupied = self._inference.is_occupied(space_id, now)
        except StorageError as exc:
            return self._degraded("room_occupancy", exc, now, subject_id)
        return QueryResponse(
            allowed=True,
            value=occupied,
            granularity=resolution.granularity,
            reasons=resolution.reasons,
        )

    @_instrumented_query
    def people_in_space(
        self,
        requester_id: str,
        requester_kind: RequesterKind,
        space_id: str,
        now: float,
        purpose: Purpose = Purpose.PROVIDING_SERVICE,
    ) -> QueryResponse:
        """Who is in ``space_id``?  Filtered per subject.

        Each person present is released only if a per-subject presence
        request is allowed; others are silently omitted (a denial for
        one person must not leak their presence).
        """
        if space_id not in self._spatial:
            raise ServiceError("unknown space %r" % space_id)
        try:
            present = self._inference.people_in(space_id, now)
        except StorageError as exc:
            return self._degraded("people_in_space", exc, now)
        released: List[str] = []
        reasons: Tuple[str, ...] = ()
        for subject_id in present:
            resolution = self._engine.decide_key(
                sharing_key(
                    requester_id,
                    requester_kind,
                    DataCategory.PRESENCE,
                    subject_id,
                    space_id,
                    purpose,
                ),
                now,
            )
            if resolution.allowed and resolution.granularity in (
                GranularityLevel.PRECISE,
                GranularityLevel.COARSE,
            ):
                released.append(subject_id)
                reasons = resolution.reasons
        return QueryResponse(
            allowed=True,
            value=released,
            granularity=GranularityLevel.PRECISE,
            reasons=reasons or ("no identifiable occupants released",),
        )

    @_instrumented_query
    def occupancy_heatmap(
        self,
        requester_id: str,
        requester_kind: RequesterKind,
        now: float,
        purpose: Purpose = Purpose.ENERGY_MANAGEMENT,
        k: int = 3,
        window_s: float = 900.0,
        epsilon: Optional[float] = None,
        rng: Optional["random.Random"] = None,
    ) -> QueryResponse:
        """Aggregate per-space counts with small groups suppressed.

        Requested at AGGREGATE granularity: an anonymous aggregate needs
        no per-subject consent, only a building policy authorizing
        occupancy data for the purpose.  Passing ``epsilon`` adds
        Laplace noise to the released counts (the "add noise"
        enforcement action of Section V-C); pass a seeded ``rng`` for
        reproducibility.
        """
        resolution = self._engine.decide_key(
            sharing_key(
                requester_id,
                requester_kind,
                DataCategory.OCCUPANCY,
                None,
                None,
                purpose,
                GranularityLevel.AGGREGATE,
            ),
            now,
        )
        if not resolution.allowed:
            return QueryResponse.denied(resolution.reasons)
        try:
            counts = self._inference.occupancy_map(now, window_s)
        except StorageError as exc:
            return self._degraded("occupancy_heatmap", exc, now)
        suppressed: Dict[str, object] = {
            space: count for space, count in counts.items() if count >= k
        }
        reasons = resolution.reasons
        if epsilon is not None:
            from repro.core.enforcement.mechanisms import noisy_counts

            suppressed = dict(
                noisy_counts({s: int(c) for s, c in suppressed.items()}, epsilon, rng)
            )
            reasons = reasons + ("laplace noise applied (epsilon=%g)" % epsilon,)
        return QueryResponse(
            allowed=True,
            value=suppressed,
            granularity=GranularityLevel.AGGREGATE,
            reasons=reasons,
        )

    # ------------------------------------------------------------------
    # Social ties (the "with whom they spend time" inference)
    # ------------------------------------------------------------------
    @_instrumented_query
    def frequent_contacts(
        self,
        requester_id: str,
        requester_kind: RequesterKind,
        subject_id: str,
        now: float,
        purpose: Purpose = Purpose.PROVIDING_SERVICE,
    ) -> QueryResponse:
        """Who does ``subject_id`` spend time with?

        A tie is *joint* personal data: it is released only when BOTH
        members' social-ties sharing requests are allowed, so one
        party's opt-out protects the pair.
        """
        if self._social is None:
            raise ServiceError("social inference is not enabled")
        if subject_id not in self._directory:
            raise ServiceError("unknown user %r" % subject_id)
        own = self._engine.decide_key(
            sharing_key(
                requester_id,
                requester_kind,
                DataCategory.SOCIAL_TIES,
                subject_id,
                None,
                purpose,
            ),
            now,
        )
        if not own.allowed:
            return QueryResponse.denied(own.reasons)
        released = []
        try:
            ties = self._social.ties_of(subject_id)
        except StorageError as exc:
            return self._degraded("frequent_contacts", exc, now, subject_id)
        for tie in ties:
            other = tie.user_b if tie.user_a == subject_id else tie.user_a
            if self._engine.decide_key(
                sharing_key(
                    requester_id,
                    requester_kind,
                    DataCategory.SOCIAL_TIES,
                    other,
                    None,
                    purpose,
                ),
                now,
            ).allowed:
                released.append({"contact": other, "encounters": tie.encounters})
        return QueryResponse(
            allowed=True,
            value=released,
            granularity=own.granularity,
            reasons=own.reasons,
        )

    # ------------------------------------------------------------------
    # Event details (Policy 4)
    # ------------------------------------------------------------------
    @_instrumented_query
    def event_details(
        self,
        requester_id: str,
        requester_kind: RequesterKind,
        event_id: str,
        for_user: str,
        now: float,
        details: Optional[Dict[str, object]] = None,
    ) -> QueryResponse:
        """Event details for ``for_user``: registered AND nearby only.

        Policy 4: "details regarding an event are disclosed to
        registered participants only when they are nearby".  Nearby
        means the user's current location overlaps or neighbors the
        event space.
        """
        roster = self._policy_manager.event_roster(event_id)
        if for_user not in roster:
            return QueryResponse.denied(("user not registered for event",))
        event_space = self._policy_manager.event_space(event_id)
        estimate = self._inference.locate(for_user, now)
        if estimate is None:
            return QueryResponse.denied(("user location unknown; not nearby",))
        nearby = (
            estimate.space_id == event_space
            or self._spatial.overlap(event_space, estimate.space_id)
            or self._spatial.neighboring(event_space, estimate.space_id)
            or self._same_floor(event_space, estimate.space_id)
        )
        if not nearby:
            return QueryResponse.denied(("user not nearby the event space",))
        resolution = self._engine.decide_key(
            sharing_key(
                requester_id,
                requester_kind,
                DataCategory.MEETING_DETAILS,
                for_user,
                event_space,
                Purpose.PROVIDING_SERVICE,
            ),
            now,
        )
        if not resolution.allowed:
            return QueryResponse.denied(resolution.reasons)
        return QueryResponse(
            allowed=True,
            value=details or {"event_id": event_id, "space_id": event_space},
            granularity=resolution.granularity,
            reasons=resolution.reasons,
        )

    def _same_floor(self, a_id: str, b_id: str) -> bool:
        if a_id not in self._spatial or b_id not in self._spatial:
            return False
        from repro.spatial.model import SpaceType

        floor_a = self._spatial.ancestor_at_level(a_id, SpaceType.FLOOR)
        floor_b = self._spatial.ancestor_at_level(b_id, SpaceType.FLOOR)
        return (
            floor_a is not None
            and floor_b is not None
            and floor_a.space_id == floor_b.space_id
        )
