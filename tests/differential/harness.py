"""The differential harness: reference interpreter vs compiled engine.

:class:`EnginePair` owns two enforcement engines built from identical
rule stores -- the reference
:class:`~repro.core.enforcement.engine.EnforcementEngine` (the oracle)
and a :class:`~repro.core.enforcement.compiled.CompiledEnforcementEngine`
built with the same arguments.  Every mutation is applied to both
stores; every request is decided by both engines and the outcomes
compared field by field.

Observations are also enforced by a third engine, a
:class:`RequestPathEngine`: the compiled engine, but with every
``DataRequest`` built before ``decide_key`` runs.  It is the oracle
showing that serving a warm row before any request is built changes
nothing, down to the table bookkeeping
(:class:`~repro.core.enforcement.compiled.TableStats`), which the
interpreter does not keep.  Sharing requests asked through
:meth:`EnginePair.ask` go through the compiled engine's ``decide_key``
with only the key, and through ``decide`` on the other two engines.

Normalization: injected policy-fetch failures embed the fault
injector's logical step number in the fail-closed reason string, and
the two engines drive *separate* injectors whose counters need not
agree -- so reasons are compared with ``step <n>`` rewritten to
``step N``.  Nothing else is normalized; effects, granularities, rule
id orderings, notify flags, and audit trails must match exactly.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import (
    Decision,
    EnforcementEngine,
    request_from_key,
)
from repro.core.policy.base import Effect
from repro.core.policy.conditions import EvaluationContext
from repro.core.reasoner.index import PolicyIndex, RuleStore
from repro.core.reasoner.resolution import Resolution, ResolutionStrategy
from repro.obs.metrics import MetricsRegistry
from repro.spatial.model import build_simple_building

_STEP = re.compile(r"step \d+")

_SPATIAL = build_simple_building("b", floors=2, rooms_per_floor=4)

#: Profile groups referenced by the shared ``ProfileCondition``
#: strategy; carol and dan stay unprofiled on purpose.
USER_PROFILES = {
    "mary": frozenset({"faculty"}),
    "bob": frozenset({"grad-student"}),
}


def make_context() -> EvaluationContext:
    return EvaluationContext(spatial=_SPATIAL, user_profiles=dict(USER_PROFILES))


def normalize_reasons(reasons: Iterable[str]) -> Tuple[str, ...]:
    """Reasons with injector step numbers masked (see module docs)."""
    return tuple(_STEP.sub("step N", reason) for reason in reasons)


def resolution_key(resolution: Resolution) -> tuple:
    return (
        resolution.effect,
        resolution.granularity,
        resolution.policy_ids,
        resolution.preference_ids,
        resolution.notify_user,
        normalize_reasons(resolution.reasons),
    )


def audit_key(record: AuditRecord) -> tuple:
    return record[:8] + (normalize_reasons(record.reasons), record.notify_user)


class RequestPathEngine(CompiledEnforcementEngine):
    """A compiled engine that builds the request of every decision
    before ``decide_key`` runs, so a request that fails to build fails
    before the table is probed."""

    def decide_key(self, key, timestamp, notes=(), request=None):
        if request is None:
            request = request_from_key(key, timestamp)
        return super().decide_key(key, timestamp, notes, request)


def _outcome(call: Callable[[], object]) -> object:
    try:
        return call()
    except Exception as exc:  # the raised error is part of the contract
        return (type(exc), str(exc))


class EnginePair:
    """Reference and compiled engines fed identical rules and requests."""

    def __init__(
        self,
        policies: Iterable = (),
        preferences: Iterable = (),
        strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
    ) -> None:
        self.reference_metrics = MetricsRegistry()
        self.compiled_metrics = MetricsRegistry()
        self.request_path_metrics = MetricsRegistry()
        self.reference = EnforcementEngine(
            store=PolicyIndex(),
            context=make_context(),
            strategy=strategy,
            audit=AuditLog(metrics=self.reference_metrics),
            metrics=self.reference_metrics,
        )
        self.compiled = CompiledEnforcementEngine(
            store=PolicyIndex(),
            context=make_context(),
            strategy=strategy,
            audit=AuditLog(metrics=self.compiled_metrics),
            metrics=self.compiled_metrics,
        )
        self.request_path = RequestPathEngine(
            store=PolicyIndex(),
            context=make_context(),
            strategy=strategy,
            audit=AuditLog(metrics=self.request_path_metrics),
            metrics=self.request_path_metrics,
        )
        self.policy_ids: List[str] = []
        for policy in policies:
            self.add_policy(policy)
        for preference in preferences:
            self.add_preference(preference)

    @property
    def stores(self) -> Tuple[RuleStore, ...]:
        return (self.reference.store, self.compiled.store, self.request_path.store)

    # ------------------------------------------------------------------
    # Mutations (applied to every store)
    # ------------------------------------------------------------------
    def add_policy(self, policy) -> None:
        for store in self.stores:
            store.add_policy(policy)
        self.policy_ids.append(policy.policy_id)

    def remove_policy_at(self, index: int) -> Optional[str]:
        """Remove the ``index % len``-th live policy from every store."""
        if not self.policy_ids:
            return None
        policy_id = self.policy_ids.pop(index % len(self.policy_ids))
        for store in self.stores:
            store.remove_policy(policy_id)
        return policy_id

    def add_preference(self, preference) -> None:
        for store in self.stores:
            store.add_preference(preference)

    def withdraw_user(self, user_id: str) -> None:
        for store in self.stores:
            store.remove_preferences_of(user_id)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def decide(self, request, notes: Tuple[str, ...] = ()) -> Tuple[Decision, Decision]:
        expected = self.reference.decide(request, notes)
        actual = self.compiled.decide(request, notes)
        assert resolution_key(actual.resolution) == resolution_key(
            expected.resolution
        ), "divergence on %r:\ncompiled:  %r\nreference: %r" % (
            request,
            actual.resolution,
            expected.resolution,
        )
        return expected, actual

    def enforce(self, observation, phase) -> object:
        """Enforce ``observation`` on all three engines; the common outcome.

        Each engine must return the same observation, or raise the same
        error.
        """
        expected = _outcome(
            lambda: self.reference.enforce_observation(observation, phase)
        )
        for engine in (self.compiled, self.request_path):
            actual = _outcome(lambda: engine.enforce_observation(observation, phase))
            assert actual == expected, (
                "divergence on %r in %s:\n%s:  %r\nreference: %r"
                % (observation, phase, type(engine).__name__, actual, expected)
            )
        return expected

    def ask(self, key: tuple, timestamp: float, notes: Tuple[str, ...] = ()) -> object:
        """Decide the request ``key`` describes at ``timestamp``, three ways.

        The interpreter and the request-path engine build the request
        and call ``decide``; the compiled engine answers through
        ``decide_key`` with only the key.  Each must return the same
        resolution, or raise the same error; the common outcome is
        returned.
        """

        def through_decide(engine: EnforcementEngine) -> Callable[[], object]:
            return lambda: engine.decide(
                request_from_key(key, timestamp), notes
            ).resolution

        def comparable(outcome: object) -> object:
            if isinstance(outcome, Resolution):
                return resolution_key(outcome)
            return outcome

        expected = _outcome(through_decide(self.reference))
        for name, call in (
            ("key path", lambda: self.compiled.decide_key(key, timestamp, notes)),
            ("request path", through_decide(self.request_path)),
        ):
            actual = _outcome(call)
            assert comparable(actual) == comparable(expected), (
                "divergence on %r at %r with notes %r in the %s:\n"
                "actual:    %r\nreference: %r"
                % (key, timestamp, notes, name, actual, expected)
            )
        return expected

    def apply(self, step) -> None:
        """Apply one generated ``(op, payload)`` step (see strategies)."""
        op, payload = step
        if op == "request":
            self.decide(payload)
        elif op == "add_preference":
            self.add_preference(payload)
        elif op == "withdraw_user":
            self.withdraw_user(payload)
        elif op == "add_policy":
            self.add_policy(payload)
        elif op == "remove_policy":
            self.remove_policy_at(payload)
        else:  # pragma: no cover - strategy bug
            raise AssertionError("unknown step %r" % (op,))

    # ------------------------------------------------------------------
    # Whole-run checks
    # ------------------------------------------------------------------
    def assert_trails_equal(self) -> None:
        reference = [audit_key(r) for r in self.reference.audit]
        compiled = [audit_key(r) for r in self.compiled.audit]
        assert compiled == reference, "audit trails diverged"

    def assert_counters_equal(self) -> None:
        for effect in Effect:
            labels = {"effect": effect.value}
            assert self.compiled_metrics.total(
                "enforcement_decisions_total", labels
            ) == self.reference_metrics.total(
                "enforcement_decisions_total", labels
            ), ("decision counter diverged for %s" % effect.value)
        assert self.compiled_metrics.histogram(
            "enforcement_decide_seconds"
        ).count == self.reference_metrics.histogram(
            "enforcement_decide_seconds"
        ).count, "latency histogram sample counts diverged"

    def assert_request_path_equal(self) -> None:
        """The compiled engine and the request-path engine agree on the
        whole audit trail, table stats and metrics snapshot (timing
        histograms compared by sample count)."""
        compiled = [audit_key(r) for r in self.compiled.audit]
        request_path = [audit_key(r) for r in self.request_path.audit]
        assert request_path == compiled, "request-path audit trail diverged"
        assert self.request_path.stats == self.compiled.stats, "TableStats diverged"
        assert untimed_snapshot(self.request_path_metrics) == untimed_snapshot(
            self.compiled_metrics
        ), "metrics snapshots diverged"


def untimed_snapshot(registry: MetricsRegistry) -> dict:
    """``registry.snapshot()`` with each ``*_seconds`` histogram cut to
    its sample count, the only part of a timing that two runs share."""
    snapshot = registry.snapshot()
    snapshot["histograms"] = [
        {"name": h["name"], "labels": h["labels"], "count": h["count"]}
        if h["name"].endswith("_seconds")
        else h
        for h in snapshot["histograms"]
    ]
    return snapshot
