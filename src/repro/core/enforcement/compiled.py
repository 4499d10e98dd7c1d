"""Compiled enforcement: flattened per-user decision tables.

Section V-C names enforcement cost the obstacle to deploying the
paper's model at building scale.  The reference
:class:`~repro.core.enforcement.engine.EnforcementEngine` re-walks
policy documents and preferences on every request; this module compiles
each (building policy set x user preference set) into a flattened
decision table so a repeat request is a pair of dict probes.

Layout
------

The table is sharded per *subject* (the user the data is about, with a
dedicated shard for subject-less requests), because a user preference
can only ever apply to requests about its own user
(``UserPreference.applies_to`` requires ``request.subject_id ==
user_id``).  Within a shard, rows are keyed by every remaining request
field a rule can consult::

    (requester_id, requester_kind, phase, category,
     space_id, purpose, granularity, sensor_type)

Shards exist for invalidation bookkeeping; serving goes through one
flat dict keyed by ``(subject_id,) + row_key`` so a warm decision is a
single probe.  Every invalidation path keeps the two views in
lockstep.  A row stores the :class:`Resolution` to serve, the
precomputed tail of the :class:`AuditRecord` tuple (everything after
the timestamp), and the decisions counter for the row's effect -- so
the hit path allocates only the two NamedTuples it must return.

Capture enforcement has a lane of its own: ``enforce_observation``
first calls :meth:`CompiledEnforcementEngine._serve_observation`, which
probes with ``observation_key`` -- the fields ``request_for_observation``
builds its request from, in ``_flat_key`` order -- so a warm reading
builds no :class:`DataRequest`.  A miss, or a negative timestamp (which
``DataRequest`` refuses), takes the request path.  Both lanes share one
hit helper.

Keys are tuples of vocabulary enum members, which hash by identity
(``__hash__ = object.__hash__`` in ``vocabulary.py`` and
``policy/base.py``), so a probe never calls a Python-level hash.

Invalidation protocol
---------------------

A rule change needs no hook to invalidate the table.  The rule store
carries monotonic counters
(:attr:`~repro.core.reasoner.index.RuleStore.version`,
:attr:`~repro.core.reasoner.index.RuleStore.policy_version`, and
:attr:`~repro.core.reasoner.index.RuleStore.preference_versions`) that
every mutation bumps.  ``decide`` compares the single global
``version`` per request, and only when it moved reconciles against the
fine-grained counters:

- a policy mutation drops *every* shard (policies affect all users);
- a preference mutation of user U drops exactly U's shard.

A mutation made straight on the store, bypassing the preference
manager, is caught the same way.  Two explicit calls remain, for state
the counters do not cover:
:meth:`invalidate_all` backs context changes (user profiles feed
``ProfileCondition``, which is time-insensitive and hence compiled into
rows), and :meth:`invalidate_user` reclaims a migrated-away user's
shard.

The table is an in-memory cache only: it is never persisted, and a
restarted engine re-warms from misses.  ``SHARD_CAPACITY`` bounds rows
per shard (a full shard is recompiled from scratch) and ``MAX_SHARDS``
bounds distinct subjects (FIFO eviction).

Equivalence
-----------

A row is compiled only when no candidate rule for the request is
time-sensitive (:func:`time_stable`, judged on the same candidate
fetch the match used) -- so a served row is bit-for-bit what the
reference interpreter would have produced: same effect, granularity,
reasons ordering, notify flag, and audit record.  Brownout-noted
decisions bypass the table in both directions, and fail-closed denials
are never compiled.  ``tests/differential`` holds the harness that
proves this against the reference engine as oracle.

This is the engine :class:`~repro.tippers.bms.TIPPERS` builds by
default; ``TIPPERS(compile_decisions=False)`` selects the interpreter.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.core.enforcement import audit as audit_module
from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.core.enforcement.engine import Decision, EnforcementEngine
from repro.core.policy.base import DataRequest, DecisionPhase
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.resolution import Resolution, resolve
from repro.errors import ReproError
from repro.sensors.base import Observation

#: Rows per shard; a full shard is recompiled from scratch.
SHARD_CAPACITY = 4096
#: Distinct subjects with a resident shard; the oldest is evicted first.
MAX_SHARDS = 16384

_perf_counter = time.perf_counter
_tuple_new = tuple.__new__
#: One C call builds the whole row key (vs eight LOAD_ATTRs).
_row_key = attrgetter(
    "requester_id",
    "requester_kind",
    "phase",
    "category",
    "space_id",
    "purpose",
    "granularity",
    "sensor_type",
)
#: The serving key: subject first, then the row key.  The hit path
#: probes one flat dict with this 9-tuple; the per-subject shards only
#: do invalidation bookkeeping.  ``EnforcementEngine.observation_key``
#: builds the same tuple for a capture reading.
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


def time_stable(
    policies: Iterable[BuildingPolicy], preferences: Iterable[UserPreference]
) -> bool:
    """True when no candidate rule's outcome depends on the timestamp.

    The exactness condition for compiling a row: a memoized resolution
    may only be reused when every candidate rule for the request (the
    store's candidates, not just the rules that matched at this
    timestamp) is time-insensitive, so the timestamp provably cannot
    change the outcome.
    """
    for rule in chain(policies, preferences):
        if rule.condition.time_sensitive:
            return False
    return True


class TableShard:
    """The compiled rows for one subject (or the subject-less shard)."""

    __slots__ = ("pref_version", "rows")

    def __init__(self, pref_version: int) -> None:
        #: The subject's preference counter at compile time; a mismatch
        #: against the store means this shard is stale.
        self.pref_version = pref_version
        #: row key -> (resolution, audit_tail, decisions_counter_inc)
        self.rows: Dict[Hashable, tuple] = {}


@dataclass
class TableStats:
    """How the table served each decision it saw (noted ones bypass it)."""

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0


#: The :class:`TableStats` fields the metrics registry reports.
_TRACKED = {
    "hits": ("enforcement_table_total", {"result": "hit"}),
    "misses": ("enforcement_table_total", {"result": "miss"}),
    "uncacheable": ("enforcement_table_total", {"result": "uncacheable"}),
}


class CompiledEnforcementEngine(EnforcementEngine):
    """An enforcement engine serving repeat requests from compiled rows.

    Constructed via ``EnforcementEngine(compiled=True, ...)`` (what
    TIPPERS does by default) or directly; it takes the reference
    engine's arguments and no others.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._shards: Dict[Optional[str], TableShard] = {}
        #: Flat serving table: ``_flat_key(request)`` -> row.  Always
        #: the union of every shard's rows (with the subject prefixed);
        #: every invalidation path keeps the two in lockstep.
        self._rows: Dict[Hashable, tuple] = {}
        # These dicts are mutated in place and never replaced, so their
        # bound ``get``s stay valid for the engine's lifetime; binding
        # them here drops attribute hops from the hit path.
        self._rows_get = self._rows.get
        self._shards_get = self._shards.get
        self._pref_version_of = self.store.preference_versions.get
        self._policy_version = self.store.policy_version
        self._store_version = self.store.version
        self._row_count = 0
        self.stats = TableStats()
        self.metrics.track(self.stats, _TRACKED)
        self._m_shards = self.metrics.gauge("enforcement_table_shards")
        self._m_rows = self.metrics.gauge("enforcement_table_rows")
        self._m_invalidations = self.metrics.counter(
            "enforcement_table_invalidations_total"
        )

    # The hit path inlines the append for a plain in-memory AuditLog
    # (subclasses -- e.g. the WAL-backed DurableAuditLog -- always get
    # their own ``append`` so no logging is bypassed); the property
    # setter keeps the bindings fresh if anyone swaps the log.  The
    # bound objects are stable for the log's lifetime: ``AuditLog``
    # never replaces its records list (trim is in place) or counters.
    @property
    def audit(self):  # type: ignore[override]
        return self._audit

    @audit.setter
    def audit(self, value) -> None:
        self._audit = value
        if type(value) is AuditLog:
            self._audit_records = value._records
            self._audit_capacity = audit_module.AUDIT_WINDOW
            self._audit_m_appends = value._m_appends
            self._audit_m_records = value._m_records
        else:
            self._audit_records = None

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(
        self, request: DataRequest, notes: Tuple[str, ...] = ()
    ) -> Decision:
        # Noted decisions (brownout-degraded responses) bypass the table
        # in both directions: a row must not shed its degradation
        # marker, and a marked resolution must not be served later to
        # an un-degraded request.
        if notes:
            return super().decide(request, notes)
        start = _perf_counter()
        store = self.store
        # One integer compare guards the whole table: ``store.version``
        # moves on every rule mutation, and ``_reconcile`` re-checks
        # the fine-grained counters only then.  The invariant between
        # mutations: every resident shard is valid.
        if store.version != self._store_version:
            self._reconcile()
        row = self._rows_get(_flat_key(request))
        if row is not None:
            self._note_hit(row, request.timestamp, start)
            return _tuple_new(Decision, (request, row[0]))

        # Miss: run the reference interpreter, then compile the outcome.
        # One store fetch serves both the match and the time-stability
        # proof, so every faulted fetch fails closed.
        matcher = self._matcher
        try:
            candidates = matcher.candidates(request)
            match = matcher.match(request, candidates)
        except ReproError as exc:
            # Fail-closed denials are transient by construction; they
            # are never compiled into the table.
            return self._fail_closed(request, exc, start)
        resolution = resolve(match, self.strategy)
        self._record(request, resolution)
        if time_stable(*candidates):
            self.stats.misses += 1
            subject = request.subject_id
            shard = self._shards_get(subject)
            if shard is None:
                shards = self._shards
                if len(shards) >= MAX_SHARDS:
                    self._drop_shard(next(iter(shards)))
                shard = shards[subject] = TableShard(
                    self._pref_version_of(subject, 0)
                )
                self._m_shards.set(len(shards))
            if len(shard.rows) >= SHARD_CAPACITY:
                self._clear_shard_rows(subject, shard)
            key = _row_key(request)
            row = shard.rows[key] = (
                resolution,
                (
                    request.requester_id,
                    request.phase,
                    request.category.value,
                    subject,
                    request.space_id,
                    resolution.effect,
                    resolution.granularity,
                    resolution.reasons,
                    resolution.notify_user,
                ),
                self._m_decisions[resolution.effect],
            )
            self._rows[(subject,) + key] = row
            self._row_count += 1
            self._m_rows.set(self._row_count)
        else:
            self.stats.uncacheable += 1
        self._note_decision(
            resolution,
            len(match.policies) + len(match.preferences),
            _perf_counter() - start,
        )
        return Decision(request=request, resolution=resolution)

    def _serve_observation(
        self, observation: Observation, phase: DecisionPhase
    ) -> Optional[Resolution]:
        """Serve a warm row for ``observation`` without a DataRequest.

        The probe key is :meth:`observation_key`, which equals
        ``_flat_key(request_for_observation(...))``.  On a miss, or for a
        negative timestamp (which ``DataRequest`` refuses), this returns
        ``None`` and ``enforce_observation`` takes the request path.
        """
        start = _perf_counter()
        if self.store.version != self._store_version:
            self._reconcile()
        row = self._rows_get(self.observation_key(observation, phase))
        timestamp = observation.timestamp
        if row is None or timestamp < 0:
            return None
        self._note_hit(row, timestamp, start)
        return row[0]

    def _note_hit(self, row: tuple, timestamp: float, start: float) -> None:
        """Audit and count one decision served from ``row``."""
        self.stats.hits += 1
        record = _tuple_new(AuditRecord, (timestamp,) + row[1])
        records = self._audit_records
        if records is not None and len(records) < self._audit_capacity:
            # Inlined AuditLog.append below-capacity branch (same
            # bumps, no trim possible).  Direct .value bumps (not
            # .inc()): method-call overhead is measurable at this
            # path's budget.
            records.append(record)
            self._audit_m_appends.value += 1
            self._audit_m_records.value += 1
        else:
            self._audit.append(record)
        row[2].value += 1  # enforcement_decisions_total{effect=...}
        # A hit evaluates zero rules and skips the rules histogram;
        # enforcement_rules_evaluated measures interpreter work only
        # (see docs/BENCHMARKS.md).  The latency histogram update is
        # inlined (same arithmetic as Histogram.observe, which property
        # tests pin): the call overhead alone is ~10% of a table hit.
        elapsed = _perf_counter() - start
        latency = self._m_latency
        latency.counts[bisect_left(latency.boundaries, elapsed)] += 1
        latency.count += 1
        latency.sum += elapsed
        if latency.min is None or elapsed < latency.min:
            latency.min = elapsed
        if latency.max is None or elapsed > latency.max:
            latency.max = elapsed

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _reconcile(self) -> None:
        """Re-validate every shard against the store's fine counters.

        Called when ``store.version`` moved since the last decide: a
        policy change drops everything, a preference change drops
        exactly the mutated users' shards.  Between calls, every
        resident shard is valid, so the hit path needs only the single
        ``store.version`` compare.
        """
        store = self.store
        if store.policy_version != self._policy_version:
            self._drop_all_shards()
            self._policy_version = store.policy_version
        else:
            pref_of = self._pref_version_of
            stale = [
                subject
                for subject, shard in self._shards.items()
                if shard.pref_version != pref_of(subject, 0)
            ]
            for subject in stale:
                self._drop_shard(subject)
        self._store_version = store.version

    def _clear_shard_rows(
        self, subject: Optional[str], shard: TableShard
    ) -> None:
        """Empty ``shard`` and its entries in the flat serving table."""
        rows = self._rows
        for key in shard.rows:
            del rows[(subject,) + key]
        self._row_count -= len(shard.rows)
        shard.rows.clear()

    def _drop_shard(self, subject: Optional[str]) -> None:
        shard = self._shards.pop(subject, None)
        if shard is not None:
            self._clear_shard_rows(subject, shard)
            self._m_invalidations.inc()
            self._m_shards.set(len(self._shards))
            self._m_rows.set(self._row_count)

    def _drop_all_shards(self) -> None:
        if self._shards:
            self._shards.clear()
            self._rows.clear()
            self._row_count = 0
            self._m_invalidations.inc()
            self._m_shards.set(0)
            self._m_rows.set(0)

    def invalidate_user(self, user_id: str) -> None:
        """Drop the compiled shard for ``user_id`` (no-op if absent).

        Reclaims memory only (a migration export calls it for the user
        leaving this shard); a preference change needs no call, since
        the per-decide version check drops the stale shard.
        """
        self._drop_shard(user_id)

    def invalidate_all(self) -> None:
        """Drop every shard (context changed, e.g. user profiles)."""
        self._drop_all_shards()
        self._policy_version = self.store.policy_version
        self._store_version = self.store.version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table_rows(self) -> int:
        return self._row_count

    @property
    def table_shards(self) -> int:
        return len(self._shards)

    def table_stats(self) -> dict:
        stats = self.stats
        total = stats.hits + stats.misses + stats.uncacheable
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "uncacheable": stats.uncacheable,
            "hit_rate": stats.hits / total if total else 0.0,
            "shards": len(self._shards),
            "rows": self._row_count,
        }
