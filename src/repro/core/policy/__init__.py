"""Typed building policies and user preferences (Section III).

- :mod:`repro.core.policy.base` -- shared vocabulary: effects, decision
  phases, and the :class:`~repro.core.policy.base.DataRequest` that
  flows through the reasoner and enforcement engine.
- :mod:`repro.core.policy.conditions` -- when a rule applies: temporal
  and profile conditions and their boolean combinations.
- :mod:`repro.core.policy.building` -- building policies, including the
  actuation and access rules of Policies 1-4 in the paper.
- :mod:`repro.core.policy.preference` -- user preferences and service
  permissions (Preferences 1-4 in the paper).
- :mod:`repro.core.policy.scope` -- which requests a rule governs: the
  :class:`~repro.core.policy.scope.Scope` of its phases and selectors,
  the one rule behind the matchers, the policy lint and conflict
  detection.
- :mod:`repro.core.policy.settings` -- the settings space a building
  exposes (Figure 4) and user selections within it.
"""

from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import ActuationRule, BuildingPolicy
from repro.core.policy.conditions import (
    AllOf,
    AnyOf,
    Condition,
    EvaluationContext,
    Not,
    ProfileCondition,
    TemporalCondition,
)
from repro.core.policy.preference import ServicePermission, UserPreference
from repro.core.policy.settings import SettingChoice, SettingsSpace

__all__ = [
    "Effect",
    "DecisionPhase",
    "RequesterKind",
    "DataRequest",
    "Condition",
    "EvaluationContext",
    "TemporalCondition",
    "ProfileCondition",
    "AllOf",
    "AnyOf",
    "Not",
    "BuildingPolicy",
    "ActuationRule",
    "UserPreference",
    "ServicePermission",
    "SettingsSpace",
    "SettingChoice",
]
