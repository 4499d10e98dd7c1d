"""The enforcement engine: the building's policy decision point.

One engine instance sits inside TIPPERS.  Sensor managers call
:meth:`EnforcementEngine.enforce_observation` on every reading before it
is stored (capture/storage phases); the request manager calls
:meth:`EnforcementEngine.decide` before answering service queries
(processing/sharing phases).  Every decision lands in the audit log.
"""

from __future__ import annotations

import dataclasses
import time
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
#: time.  Extend (or override via the engine constructor) for custom
#: sensor types.
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

    Pass ``compiled=True`` to get a :class:`CompiledEnforcementEngine`
    (see ``enforcement/compiled.py``): same constructor, same decision
    semantics bit-for-bit, but repeat requests are served from a
    flattened per-user decision table instead of re-walking policy
    documents.  The plain class remains the reference interpreter the
    differential test harness treats as the oracle.
    """

    def __new__(cls, *args: object, **kwargs: object) -> "EnforcementEngine":
        if cls is EnforcementEngine and kwargs.get("compiled"):
            from repro.core.enforcement.compiled import (
                CompiledEnforcementEngine,
            )

            return super().__new__(CompiledEnforcementEngine)
        return super().__new__(cls)

    def __init__(
        self,
        store: Optional[RuleStore] = None,
        context: Optional[EvaluationContext] = None,
        strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
        ontology: Optional[SensorOntology] = None,
        sensor_categories: Optional[Dict[str, DataCategory]] = None,
        sensor_purposes: Optional[Dict[str, Purpose]] = None,
        audit: Optional[AuditLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        *,
        compiled: bool = False,
    ) -> None:
        self.store = store if store is not None else PolicyIndex()
        self.context = context if context is not None else EvaluationContext()
        self.strategy = strategy
        self.ontology = ontology if ontology is not None else default_ontology()
        self.sensor_categories = dict(DEFAULT_SENSOR_CATEGORY)
        if sensor_categories:
            self.sensor_categories.update(sensor_categories)
        self.sensor_purposes = dict(DEFAULT_SENSOR_PURPOSE)
        if sensor_purposes:
            self.sensor_purposes.update(sensor_purposes)
        self.audit = audit if audit is not None else AuditLog()
        self._matcher = PolicyMatcher(self.store, self.context)
        # Metric handles are resolved once here; decide() only touches
        # plain attributes so instrumentation stays off the profile.
        self.metrics = metrics if metrics is not None else get_registry()
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
    # Query-path enforcement (steps 9-10 of Figure 1)
    # ------------------------------------------------------------------
    def decide(
        self, request: DataRequest, notes: Tuple[str, ...] = ()
    ) -> Decision:
        """Resolve ``request`` and record the outcome.

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
        return Decision(request=request, resolution=resolution)

    # ------------------------------------------------------------------
    # Capture-path enforcement (steps 2-3 of Figure 1)
    # ------------------------------------------------------------------
    def observation_key(
        self, observation: Observation, phase: DecisionPhase
    ) -> tuple:
        """The fields of :meth:`request_for_observation` but the timestamp.

        In the compiled table's key order (``compiled._flat_key``):
        subject, requester id, requester kind, phase, category, space,
        purpose, granularity, sensor type.  This is the one place that
        knows the shape of a capture-time request.
        """
        sensor_type = observation.sensor_type
        return (
            observation.subject_id,
            "building",
            RequesterKind.BUILDING,
            phase,
            self.sensor_categories.get(sensor_type, DataCategory.ACTIVITY),
            observation.space_id,
            self.sensor_purposes.get(sensor_type),
            GranularityLevel.PRECISE,
            sensor_type,
        )

    def request_for_observation(
        self, observation: Observation, phase: DecisionPhase
    ) -> DataRequest:
        """The data request implied by capturing/storing ``observation``."""
        (subject_id, requester_id, requester_kind, phase, category,
         space_id, purpose, granularity, sensor_type) = self.observation_key(
            observation, phase
        )
        return DataRequest(
            requester_id=requester_id,
            requester_kind=requester_kind,
            phase=phase,
            category=category,
            subject_id=subject_id,
            space_id=space_id,
            timestamp=observation.timestamp,
            purpose=purpose,
            granularity=granularity,
            sensor_type=sensor_type,
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
        resolution = self._serve_observation(observation, phase)
        if resolution is None:
            request = self.request_for_observation(observation, phase)
            resolution = self.decide(request).resolution
        if not resolution.allowed:
            return None
        return degrade_observation(
            observation,
            resolution.granularity,
            spatial=self.context.spatial,
            ontology=self.ontology,
        )

    def _serve_observation(
        self, observation: Observation, phase: DecisionPhase
    ) -> Optional[Resolution]:
        """The audited resolution for ``observation`` without building
        its request, or ``None`` to decide it through :meth:`decide`.

        The interpreter has no such shortcut; the compiled engine serves
        warm table rows here.
        """
        return None

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
    ) -> Decision:
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
        return Decision(request=request, resolution=resolution)

    def _note_decision(
        self, resolution: Resolution, rules_evaluated: int, elapsed_s: float
    ) -> None:
        """Update decision metrics (shared with the caching subclass)."""
        self._m_decisions[resolution.effect].inc()
        self._m_rules.observe(rules_evaluated)
        self._m_latency.observe(elapsed_s)

    def _record(self, request: DataRequest, resolution: Resolution) -> None:
        self.audit.append(
            AuditRecord(
                timestamp=request.timestamp,
                requester_id=request.requester_id,
                phase=request.phase,
                category=request.category.value,
                subject_id=request.subject_id,
                space_id=request.space_id,
                effect=resolution.effect,
                granularity=resolution.granularity,
                reasons=resolution.reasons,
                notify_user=resolution.notify_user,
            )
        )
