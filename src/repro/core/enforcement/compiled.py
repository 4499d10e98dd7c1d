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
user_id``).  Rows live in one flat dict keyed by the request's 9-tuple
key, subject first (``engine._flat_key``)::

    (subject_id, requester_id, requester_kind, phase, category,
     space_id, purpose, granularity, sensor_type)

so a warm decision is a single probe.  A shard only keeps the keys of
its subject's rows, for invalidation.  A row is a 4-tuple::

    (resolution, audit_tail, decisions_counter, payload_tail)

- the :class:`Resolution` to serve;
- the tail of the :class:`AuditRecord` tuple (everything after the
  timestamp), as ``EnforcementEngine._record`` returned it at compile
  time;
- the ``enforcement_decisions_total`` counter of the row's effect;
- the audit record's WAL payload tail, the encoded bytes after the
  timestamp, which the audit log installed at compile time makes
  (:meth:`AuditLog.payload_tail`; ``None`` for an in-memory log, or
  for a tail the WAL template cannot write).  A hit hands it to the
  log's ``append``, so a WAL-backed log frames the decision without
  re-encoding it.

So a hit builds no request and no resolution, only its audit record.

Entry point
-----------

Every decision enters through :meth:`CompiledEnforcementEngine.decide_key`
with its key: ``decide`` takes it from its request, capture
enforcement's ``enforce_observation`` from ``observation_key`` and the
request manager's queries from ``engine.sharing_key``.  A warm row is
served before any :class:`DataRequest` is built.  Noted decisions go to
the interpreter's ``decide_key``.  A miss, or a negative timestamp
(which ``DataRequest`` refuses), builds the request first, so one that
fails to build touches no table state, then decides and compiles it.

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
every mutation bumps.  ``decide_key`` compares the single global
``version`` per decision, and only when it moved reconciles against the
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
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.enforcement.audit import AuditRecord
from repro.core.enforcement.engine import EnforcementEngine, request_from_key
from repro.core.policy.base import DataRequest
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.resolution import Resolution, resolve
from repro.errors import ReproError

#: Rows per shard; a full shard is recompiled from scratch.
SHARD_CAPACITY = 4096
#: Distinct subjects with a resident shard; the oldest is evicted first.
MAX_SHARDS = 16384

_perf_counter = time.perf_counter
_tuple_new = tuple.__new__


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

    __slots__ = ("pref_version", "keys")

    def __init__(self, pref_version: int) -> None:
        #: The subject's preference counter at compile time; a mismatch
        #: against the store means this shard is stale.
        self.pref_version = pref_version
        #: The table keys of this subject's rows.
        self.keys: List[Hashable] = []


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

    TIPPERS builds one by default.  It takes the reference engine's
    arguments and no others.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._shards: Dict[Optional[str], TableShard] = {}
        #: Every row, by table key; a shard's ``keys`` name its share.
        self._rows: Dict[Hashable, tuple] = {}
        # These dicts are mutated in place and never replaced, so their
        # bound ``get``s stay valid for the engine's lifetime; binding
        # them here drops attribute hops from the hit path.
        self._rows_get = self._rows.get
        self._shards_get = self._shards.get
        self._pref_version_of = self.store.preference_versions.get
        self._policy_version = self.store.policy_version
        self._store_version = self.store.version
        self.stats = TableStats()
        self.metrics.track(self.stats, _TRACKED)
        # Each engine adds its own deltas to the two gauges, so engines
        # sharing a registry (a campus's shards) report the sum.
        self._m_shards = self.metrics.gauge("enforcement_table_shards")
        self._m_rows = self.metrics.gauge("enforcement_table_rows")
        self._m_invalidations = self.metrics.counter(
            "enforcement_table_invalidations_total"
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide_key(
        self,
        key: tuple,
        timestamp: float,
        notes: Tuple[str, ...] = (),
        request: Optional[DataRequest] = None,
    ) -> Resolution:
        # Noted decisions (brownout-degraded responses) bypass the table
        # in both directions: a row must not shed its degradation
        # marker, and a marked resolution must not be served later to
        # an un-degraded request.
        if notes:
            return super().decide_key(key, timestamp, notes, request)
        start = _perf_counter()
        row = self._rows_get(key)
        # ``not timestamp < 0`` is ``DataRequest``'s own check, so a row
        # serves exactly the timestamps a request may carry; it runs
        # only once a row is found, so a miss with a malformed
        # timestamp still fails in ``DataRequest``.
        if row is not None and not timestamp < 0:
            # One integer compare guards the whole table: ``store.version``
            # moves on every rule mutation, and ``_reconcile`` re-checks
            # the fine-grained counters only then.  The invariant between
            # mutations: every resident shard is valid.
            if self.store.version != self._store_version:
                self._reconcile()
                row = self._rows_get(key)
            if row is not None:
                self._note_hit(row, timestamp, start)
                return row[0]

        # Miss: build the request first, so one that fails to build
        # touches no table state; then run the reference interpreter
        # and compile the outcome.  One store fetch serves both the
        # match and the time-stability proof, so every faulted fetch
        # fails closed.
        if request is None:
            request = request_from_key(key, timestamp)
        if self.store.version != self._store_version:
            self._reconcile()
        matcher = self._matcher
        try:
            candidates = matcher.candidates(request)
            match = matcher.match(request, candidates)
        except ReproError as exc:
            # Fail-closed denials are transient by construction; they
            # are never compiled into the table.
            return self._fail_closed(request, exc, start)
        resolution = resolve(match, self.strategy)
        audit_tail = self._record(request, resolution)
        if time_stable(*candidates):
            self.stats.misses += 1
            subject = key[0]
            shard = self._shards_get(subject)
            if shard is None:
                shards = self._shards
                if len(shards) >= MAX_SHARDS:
                    self._drop_shard(next(iter(shards)))
                shard = shards[subject] = TableShard(
                    self._pref_version_of(subject, 0)
                )
                self._m_shards.value += 1
            if len(shard.keys) >= SHARD_CAPACITY:
                self._clear_shard_rows(shard)
            shard.keys.append(key)
            self._rows[key] = (
                resolution,
                audit_tail,
                self._m_decisions[resolution.effect],
                self.audit.payload_tail(audit_tail),
            )
            self._m_rows.value += 1
        else:
            self.stats.uncacheable += 1
        self._note_decision(
            resolution,
            len(match.policies) + len(match.preferences),
            _perf_counter() - start,
        )
        return resolution

    def _note_hit(self, row: tuple, timestamp: float, start: float) -> None:
        """Audit and count one decision served from ``row``."""
        self.stats.hits += 1
        self.audit.append(_tuple_new(AuditRecord, (timestamp,) + row[1]), row[3])
        # Direct .value bump (not .inc()): method-call overhead is
        # measurable at this path's budget.
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

        Called when ``store.version`` moved since the last decision: a
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

    def _clear_shard_rows(self, shard: TableShard) -> None:
        """Drop ``shard``'s rows from the table."""
        rows = self._rows
        for key in shard.keys:
            del rows[key]
        self._m_rows.value -= len(shard.keys)
        shard.keys.clear()

    def _drop_shard(self, subject: Optional[str]) -> None:
        shard = self._shards.pop(subject, None)
        if shard is not None:
            self._clear_shard_rows(shard)
            self._m_invalidations.inc()
            self._m_shards.value -= 1

    def _drop_all_shards(self) -> None:
        if self._shards:
            self._m_shards.value -= len(self._shards)
            self._m_rows.value -= len(self._rows)
            self._shards.clear()
            self._rows.clear()
            self._m_invalidations.inc()

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

    def release_metrics(self) -> None:
        super().release_metrics()
        self._m_rows.value -= len(self._rows)
        self._m_shards.value -= len(self._shards)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table_rows(self) -> int:
        return len(self._rows)

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
            "rows": len(self._rows),
        }
