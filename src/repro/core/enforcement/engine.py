"""The enforcement engine: the building's policy decision point.

One engine instance sits inside TIPPERS.  Sensor managers call
:meth:`EnforcementEngine.enforce_observation` on every reading before it
is stored (capture/storage phases); the request manager calls
:meth:`EnforcementEngine.decide_key` with a :func:`sharing_key` before
answering service queries (processing/sharing phases).  Every decision
runs through ``decide_key`` and lands in the audit log.
"""

from __future__ import annotations

import dataclasses
import time
from operator import attrgetter
from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.core.enforcement.mechanisms import degrade_observation
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import (
    DataRequest,
    DecisionPhase,
    Effect,
    RequesterKind,
)
from repro.core.policy.conditions import EvaluationContext
from repro.core.reasoner.index import PolicyIndex, RuleStore
from repro.core.reasoner.matcher import PolicyMatcher
from repro.core.reasoner.resolution import (
    Resolution,
    ResolutionStrategy,
    resolve,
)
from repro.errors import ReproError
from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.sensors.base import Observation
from repro.sensors.ontology import SensorOntology, default_ontology

#: The primary data category an observation of each sensor type yields,
#: used when turning raw observations into data requests at capture
#: time, and by the IoTA when it reads a resource advertisement.  Other
#: sensor types yield ``ACTIVITY``.
DEFAULT_SENSOR_CATEGORY: Dict[str, DataCategory] = {
    "wifi_access_point": DataCategory.LOCATION,
    "bluetooth_beacon": DataCategory.LOCATION,
    "camera": DataCategory.PRESENCE,
    "power_meter": DataCategory.ENERGY_USE,
    "temperature_sensor": DataCategory.TEMPERATURE,
    "motion_sensor": DataCategory.OCCUPANCY,
    "hvac_unit": DataCategory.TEMPERATURE,
    "id_card_reader": DataCategory.IDENTITY,
}

#: The purpose attached to capture-time requests per sensor type,
#: reflecting why the building runs that subsystem.
DEFAULT_SENSOR_PURPOSE: Dict[str, Purpose] = {
    "wifi_access_point": Purpose.EMERGENCY_RESPONSE,
    "bluetooth_beacon": Purpose.PROVIDING_SERVICE,
    "camera": Purpose.SECURITY,
    "power_meter": Purpose.ENERGY_MANAGEMENT,
    "temperature_sensor": Purpose.COMFORT,
    "motion_sensor": Purpose.COMFORT,
    "hvac_unit": Purpose.COMFORT,
    "id_card_reader": Purpose.ACCESS_CONTROL,
}

# Bound once: ``observation_key`` runs for every captured reading.
_category_of = DEFAULT_SENSOR_CATEGORY.get
_purpose_of = DEFAULT_SENSOR_PURPOSE.get
_tuple_new = tuple.__new__

#: A request's key in the compiled table: the subject, then every other
#: field a rule can consult.  :func:`sharing_key` and
#: :meth:`EnforcementEngine.observation_key` build the same 9-tuple
#: without a request, and :func:`request_from_key` inverts it.
_flat_key = attrgetter(
    "subject_id",
    "requester_id",
    "requester_kind",
    "phase",
    "category",
    "space_id",
    "purpose",
    "granularity",
    "sensor_type",
)


def sharing_key(
    requester_id: str,
    requester_kind: RequesterKind,
    category: DataCategory,
    subject_id: Optional[str],
    space_id: Optional[str],
    purpose: Optional[Purpose],
    granularity: GranularityLevel = GranularityLevel.PRECISE,
    sensor_type: Optional[str] = None,
) -> tuple:
    """The compiled-table key of a sharing request with these fields.

    In :data:`_flat_key` order: subject, requester id, requester
    kind, phase (always SHARING), category, space, purpose,
    granularity, sensor type.  :func:`request_from_key` builds the
    request back from it, so the request manager's query shape lives
    here once.
    """
    return (
        subject_id,
        requester_id,
        requester_kind,
        DecisionPhase.SHARING,
        category,
        space_id,
        purpose,
        granularity,
        sensor_type,
    )


def request_from_key(key: tuple, timestamp: float) -> DataRequest:
    """The :class:`DataRequest` at ``timestamp`` whose table key is ``key``.

    Raises :class:`~repro.errors.PolicyError` where ``DataRequest``
    does (an empty requester id, a negative timestamp).
    """
    (subject_id, requester_id, requester_kind, phase, category,
     space_id, purpose, granularity, sensor_type) = key
    return DataRequest(
        requester_id=requester_id,
        requester_kind=requester_kind,
        phase=phase,
        category=category,
        subject_id=subject_id,
        space_id=space_id,
        timestamp=timestamp,
        purpose=purpose,
        granularity=granularity,
        sensor_type=sensor_type,
    )


class Decision(NamedTuple):
    """A resolution plus the audit record it produced.

    A ``NamedTuple`` (not a dataclass) so the per-decision construction
    cost stays negligible on the compiled fast path.
    """

    request: DataRequest
    resolution: Resolution

    @property
    def allowed(self) -> bool:
        return self.resolution.allowed

    @property
    def granularity(self) -> GranularityLevel:
        return self.resolution.granularity


class EnforcementEngine:
    """Resolves and applies policies at every decision phase.

    This is the reference interpreter the differential test harness
    treats as the oracle.  Its subclass
    :class:`~repro.core.enforcement.compiled.CompiledEnforcementEngine`
    takes the same constructor and decides bit-for-bit alike, but serves
    repeat requests from a flattened per-user decision table instead of
    re-walking policy documents.
    """

    def __init__(
        self,
        store: Optional[RuleStore] = None,
        context: Optional[EvaluationContext] = None,
        strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
        ontology: Optional[SensorOntology] = None,
        audit: Optional[AuditLog] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store if store is not None else PolicyIndex()
        self.context = context if context is not None else EvaluationContext()
        self.strategy = strategy
        self.ontology = ontology if ontology is not None else default_ontology()
        self._matcher = PolicyMatcher(self.store, self.context)
        # Metric handles are resolved once here; decide() only touches
        # plain attributes so instrumentation stays off the profile.
        self.metrics = metrics if metrics is not None else get_registry()
        self.audit = audit if audit is not None else AuditLog(metrics=self.metrics)
        self._m_decisions = {
            effect: self.metrics.counter(
                "enforcement_decisions_total", {"effect": effect.value}
            )
            for effect in Effect
        }
        self._m_rules = self.metrics.histogram(
            "enforcement_rules_evaluated", boundaries=DEFAULT_COUNT_BUCKETS
        )
        self._m_latency = self.metrics.histogram("enforcement_decide_seconds")
        self._m_failclosed = self.metrics.counter("enforcement_failclosed_total")

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(
        self, request: DataRequest, notes: Tuple[str, ...] = ()
    ) -> Decision:
        """Resolve ``request`` and record the outcome (:meth:`decide_key`)."""
        resolution = self.decide_key(
            _flat_key(request), request.timestamp, notes, request
        )
        return _tuple_new(Decision, (request, resolution))

    def decide_key(
        self,
        key: tuple,
        timestamp: float,
        notes: Tuple[str, ...] = (),
        request: Optional[DataRequest] = None,
    ) -> Resolution:
        """Resolve the request ``key`` describes at ``timestamp`` and
        record the outcome.

        Every decision runs through here: :meth:`decide`,
        :meth:`enforce_observation` and the request manager's queries
        (``sharing_key``) only build the key.  ``request`` is
        ``request_from_key(key, timestamp)`` when the caller already
        has it; it saves rebuilding it and changes no outcome.

        When the policy-fetch path itself fails (the rule store is
        unreachable or faulted), the engine *fails closed*: the request
        is denied, the denial is audited, and
        ``enforcement_failclosed_total`` is incremented.  An outage must
        never widen access.

        ``notes`` are appended to the resolution's reasons and hence to
        the audit record -- the overload layer uses them to mark every
        brownout-degraded response, so a coarsened answer is never
        indistinguishable from a precisely-served one in the audit
        trail.
        """
        if request is None:
            request = request_from_key(key, timestamp)
        start = time.perf_counter()
        try:
            match = self._matcher.match(request)
        except ReproError as exc:
            return self._fail_closed(request, exc, start, notes)
        resolution = resolve(match, self.strategy)
        if notes:
            resolution = dataclasses.replace(
                resolution, reasons=resolution.reasons + notes
            )
        self._record(request, resolution)
        self._note_decision(
            resolution,
            len(match.policies) + len(match.preferences),
            time.perf_counter() - start,
        )
        return resolution

    # ------------------------------------------------------------------
    # Capture-path enforcement (steps 2-3 of Figure 1)
    # ------------------------------------------------------------------
    def observation_key(
        self, observation: Observation, phase: DecisionPhase
    ) -> tuple:
        """The table key of the request capturing or storing
        ``observation`` at ``phase``.

        In :data:`_flat_key` order: subject, requester id, requester
        kind, phase, category, space, purpose, granularity, sensor
        type.  This is the one place that knows the shape of a
        capture-time request.
        """
        sensor_type = observation.sensor_type
        return (
            observation.subject_id,
            "building",
            RequesterKind.BUILDING,
            phase,
            _category_of(sensor_type, DataCategory.ACTIVITY),
            observation.space_id,
            _purpose_of(sensor_type),
            GranularityLevel.PRECISE,
            sensor_type,
        )

    def enforce_observation(
        self,
        observation: Observation,
        phase: DecisionPhase = DecisionPhase.STORAGE,
    ) -> Optional[Observation]:
        """``observation`` as it may be stored, or ``None`` if dropped.

        Non-attributable observations about nobody (ambient temperature)
        still pass through policy resolution -- the building must have a
        policy authorizing their collection -- but no user preference
        can apply to them.
        """
        resolution = self.decide_key(
            self.observation_key(observation, phase), observation.timestamp
        )
        if not resolution.allowed:
            return None
        if resolution.granularity is GranularityLevel.PRECISE:
            return observation  # what degrade_observation returns
        return degrade_observation(
            observation,
            resolution.granularity,
            spatial=self.context.spatial,
            ontology=self.ontology,
        )

    def release_metrics(self) -> None:
        """Withdraw this engine's and its log's shares of the gauges
        summed over a registry; call once, when the engine is dropped or
        replaced in-process (a campus shard recovered or retired)."""
        self.audit.release_metrics()

    def audit_degraded_denial(
        self,
        method: str,
        exc: Exception,
        now: float,
        subject_id: Optional[str] = None,
    ) -> Tuple[str, ...]:
        """Audit a denial issued because a query's backing store faulted.

        The request manager denies (never best-efforts) when inference
        or the datastore raises mid-query; that denial must be exactly
        as visible in the audit trail as a policy denial, or the
        transparency story has a hole precisely where the system is
        least healthy.  Returns the reasons for the denied response.
        """
        reasons = ("degraded: %s" % exc, "fail-closed deny")
        self.audit.append(
            AuditRecord(
                timestamp=now,
                requester_id="building",
                phase=DecisionPhase.SHARING,
                category="degraded:%s" % method,
                subject_id=subject_id,
                space_id=None,
                effect=Effect.DENY,
                granularity=GranularityLevel.NONE,
                reasons=reasons,
                notify_user=False,
            )
        )
        return reasons

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fail_closed(
        self,
        request: DataRequest,
        exc: ReproError,
        start: float,
        notes: Tuple[str, ...] = (),
    ) -> Resolution:
        """Deny, audit, and count a decision whose policy fetch failed."""
        resolution = Resolution(
            effect=Effect.DENY,
            granularity=GranularityLevel.NONE,
            notify_user=False,
            reasons=("policy fetch failed: %s" % exc, "fail-closed deny")
            + notes,
        )
        self._record(request, resolution)
        self._m_failclosed.inc()
        self._note_decision(resolution, 0, time.perf_counter() - start)
        return resolution

    def _note_decision(
        self, resolution: Resolution, rules_evaluated: int, elapsed_s: float
    ) -> None:
        """Update decision metrics (shared with the caching subclass)."""
        self._m_decisions[resolution.effect].inc()
        self._m_rules.observe(rules_evaluated)
        self._m_latency.observe(elapsed_s)

    def _record(self, request: DataRequest, resolution: Resolution) -> tuple:
        """Audit ``resolution`` of ``request``; returns the record's tail.

        The tail is every :class:`AuditRecord` field but the timestamp,
        in field order; a compiled row keeps it, so this is the one
        place the engine writes that order.
        """
        tail = (
            request.requester_id,
            request.phase,
            request.category.value,
            request.subject_id,
            request.space_id,
            resolution.effect,
            resolution.granularity,
            resolution.reasons,
            resolution.notify_user,
        )
        self.audit.append(_tuple_new(AuditRecord, (request.timestamp,) + tail))
        return tail
