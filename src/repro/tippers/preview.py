"""Effect preview: how much of a user's preferences will be honored.

Section III-B: preferences "might be partially or completely met
depending on other policies and user preferences existing in the same
space".  A conflict list says *that* there is tension; the preview says
*what will actually happen*: for each data category and lifecycle
phase, the resolved outcome of a hypothetical request about this user.

The IoTA displays this as the honest answer to "what did my opt-out
actually buy me?" -- e.g. "location capture continues at precise
granularity under the mandatory emergency policy, but sharing with
services is blocked".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.enforcement.engine import DEFAULT_SENSOR_CATEGORY, EnforcementEngine
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.errors import PolicyError
from repro.obs.metrics import MetricsRegistry


def _sensor_types_for(category: DataCategory) -> Tuple[Optional[str], ...]:
    """Sensor types whose observations yield ``category``, plus ``None``
    (the sensor-less probe services use)."""
    producers = tuple(
        sensor_type
        for sensor_type, produced in sorted(DEFAULT_SENSOR_CATEGORY.items())
        if produced is category
    )
    return producers + (None,)

#: The purpose a preview probes per phase: capture/storage requests are
#: building-side (the dominant capture purposes), processing/sharing
#: requests are service-side.
_PHASE_PROBES: Dict[DecisionPhase, Tuple[RequesterKind, str, Tuple[Purpose, ...]]] = {
    DecisionPhase.CAPTURE: (
        RequesterKind.BUILDING,
        "building",
        (Purpose.EMERGENCY_RESPONSE, Purpose.SECURITY, Purpose.COMFORT,
         Purpose.ENERGY_MANAGEMENT, Purpose.ACCESS_CONTROL),
    ),
    DecisionPhase.STORAGE: (
        RequesterKind.BUILDING,
        "building",
        (Purpose.EMERGENCY_RESPONSE, Purpose.SECURITY, Purpose.COMFORT,
         Purpose.ENERGY_MANAGEMENT, Purpose.ACCESS_CONTROL),
    ),
    DecisionPhase.PROCESSING: (
        RequesterKind.BUILDING_SERVICE,
        "service",
        (Purpose.PROVIDING_SERVICE,),
    ),
    DecisionPhase.SHARING: (
        RequesterKind.BUILDING_SERVICE,
        "service",
        (Purpose.PROVIDING_SERVICE,),
    ),
}


@dataclass(frozen=True)
class EffectEntry:
    """The resolved outcome for one (category, phase) cell."""

    category: DataCategory
    phase: DecisionPhase
    effect: Effect
    granularity: GranularityLevel
    overridden: bool
    """True when the outcome overrides the user's stated preference
    (a mandatory policy prevailed)."""

    def describe(self) -> str:
        if self.effect is Effect.DENY:
            return "%s/%s: blocked" % (self.category.value, self.phase.value)
        suffix = " (mandatory policy overrides your preference)" if self.overridden else ""
        return "%s/%s: allowed at %s%s" % (
            self.category.value,
            self.phase.value,
            self.granularity.value,
            suffix,
        )


@dataclass(frozen=True)
class EffectPreview:
    """The full per-category, per-phase outcome matrix for one user."""

    user_id: str
    entries: Tuple[EffectEntry, ...]

    def entry(self, category: DataCategory, phase: DecisionPhase) -> EffectEntry:
        for candidate in self.entries:
            if candidate.category is category and candidate.phase is phase:
                return candidate
        raise KeyError((category, phase))

    def overridden_entries(self) -> List[EffectEntry]:
        return [e for e in self.entries if e.overridden]

    def blocked_entries(self) -> List[EffectEntry]:
        return [e for e in self.entries if e.effect is Effect.DENY]

    def summary_lines(self) -> List[str]:
        return [entry.describe() for entry in self.entries]


def preview_effects(
    engine: EnforcementEngine,
    user_id: str,
    space_id: Optional[str],
    now: float,
    categories: Optional[Tuple[DataCategory, ...]] = None,
) -> EffectPreview:
    """Probe the engine with hypothetical requests about ``user_id``.

    Probes never touch data and are neither audited nor counted (they
    run on a scratch engine with its own audit log and metrics
    registry) -- they answer "what would happen", not "what happened".
    """
    if not user_id:
        raise PolicyError("user_id must be non-empty")
    probe_categories = categories or (
        DataCategory.LOCATION,
        DataCategory.PRESENCE,
        DataCategory.OCCUPANCY,
        DataCategory.MEETING_DETAILS,
        DataCategory.SOCIAL_TIES,
    )
    # Run probes against a scratch engine sharing the same rules and
    # context so the real audit log and every registry stay clean.
    scratch = EnforcementEngine(
        store=engine.store,
        context=engine.context,
        strategy=engine.strategy,
        ontology=engine.ontology,
        metrics=MetricsRegistry(),
    )
    entries: List[EffectEntry] = []
    for category in probe_categories:
        for phase, (kind, requester, purposes) in _PHASE_PROBES.items():
            building_side = phase in (DecisionPhase.CAPTURE, DecisionPhase.STORAGE)
            sensor_types = _sensor_types_for(category) if building_side else (None,)
            best: Optional[EffectEntry] = None
            for purpose in purposes:
                for sensor_type in sensor_types:
                    request = DataRequest(
                        requester_id=requester,
                        requester_kind=kind,
                        phase=phase,
                        category=category,
                        subject_id=user_id,
                        space_id=space_id,
                        timestamp=now,
                        purpose=purpose,
                        granularity=GranularityLevel.PRECISE,
                        sensor_type=sensor_type,
                    )
                    decision = scratch.decide(request)
                    entry = EffectEntry(
                        category=category,
                        phase=phase,
                        effect=decision.resolution.effect,
                        granularity=decision.granularity,
                        overridden=decision.resolution.notify_user
                        and decision.resolution.effect is Effect.ALLOW,
                    )
                    # Keep the most revealing outcome: the preview
                    # reports the worst case for the user.
                    if best is None or entry.granularity.rank > best.granularity.rank:
                        best = entry
            assert best is not None
            entries.append(best)
    return EffectPreview(user_id=user_id, entries=tuple(entries))
