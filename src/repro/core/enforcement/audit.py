"""Append-only audit log of enforcement decisions.

Every decision the engine takes is recorded, so users (through their
IoTA) and building admins can review what happened to the data -- the
transparency half of the paper's accountability story.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry, get_registry

#: How many records an :class:`AuditLog` keeps in memory.  Once full,
#: the oldest half is discarded.  The durable trail (the WAL and its
#: snapshots, see ``repro.storage``) keeps every record regardless.
AUDIT_WINDOW = 100_000


class AuditRecord(NamedTuple):
    """One enforcement decision, flattened for storage.

    A ``NamedTuple`` rather than a dataclass: the enforcement hot path
    constructs one record per decision, and tuple construction is an
    order of magnitude cheaper than frozen-dataclass ``__init__``.  The
    field order is part of the compiled-table layout (see
    ``enforcement/compiled.py``): a cached row stores the tail of this
    tuple (everything after ``timestamp``) precomputed.  It is also the
    WAL's positional order: an ``audit`` record is the array
    ``["audit", timestamp, requester_id, ...]`` with no key names
    (``records.FIELDS[AUDIT]`` is this tuple's ``_fields``), written by a
    field template in ``repro.storage.records`` that unpacks the tuple in
    this order; a new field must be added to that template too.
    """

    timestamp: float
    requester_id: str
    phase: DecisionPhase
    category: str
    subject_id: Optional[str]
    space_id: Optional[str]
    effect: Effect
    granularity: GranularityLevel
    reasons: Tuple[str, ...]
    notify_user: bool

    @property
    def allowed(self) -> bool:
        return self.effect is Effect.ALLOW


def audit_record_to_dict(record: AuditRecord) -> Dict[str, Any]:
    return {
        "timestamp": record.timestamp,
        "requester_id": record.requester_id,
        "phase": record.phase.value,
        "category": record.category,
        "subject_id": record.subject_id,
        "space_id": record.space_id,
        "effect": record.effect.value,
        "granularity": record.granularity.value,
        "reasons": list(record.reasons),
        "notify_user": record.notify_user,
    }


def audit_record_from_dict(data: Dict[str, Any]) -> AuditRecord:
    try:
        return AuditRecord(
            timestamp=data["timestamp"],
            requester_id=data["requester_id"],
            phase=DecisionPhase(data["phase"]),
            category=data["category"],
            subject_id=data.get("subject_id"),
            space_id=data.get("space_id"),
            effect=Effect(data["effect"]),
            granularity=GranularityLevel(data["granularity"]),
            reasons=tuple(data.get("reasons", ())),
            notify_user=data.get("notify_user", False),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise StorageError("malformed audit record: %s" % exc) from None


class AuditLog:
    """In-memory audit log with query helpers.

    Memory is bounded by :data:`AUDIT_WINDOW`: once full, the oldest
    half is discarded (coarse but O(1) amortized), with ``dropped``
    counting the loss.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._records: List[AuditRecord] = []
        self.dropped = 0
        registry = metrics if metrics is not None else get_registry()
        self._m_appends = registry.counter("audit_appends_total")
        self._m_dropped = registry.counter("audit_dropped_total")
        self._m_records = registry.gauge("audit_records")

    def append(self, record: AuditRecord) -> None:
        records = self._records
        if len(records) >= AUDIT_WINDOW:
            keep = AUDIT_WINDOW // 2
            trimmed = len(records) - keep
            self.dropped += trimmed
            self._m_dropped.inc(trimmed)
            # Trim in place: the list's identity is stable for the
            # log's lifetime, which the compiled engine's hit path
            # relies on (it binds the list once per log).
            del records[:trimmed]
        records.append(record)
        # Direct attribute bumps (not .inc()/.set()) keep this on the
        # compiled fast path's budget; semantics are identical.
        self._m_appends.value += 1
        self._m_records.value = len(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records(
        self,
        subject_id: Optional[str] = None,
        requester_id: Optional[str] = None,
        phase: Optional[DecisionPhase] = None,
        predicate: Optional[Callable[[AuditRecord], bool]] = None,
    ) -> List[AuditRecord]:
        """Records matching every provided filter."""
        result = []
        for record in self._records:
            if subject_id is not None and record.subject_id != subject_id:
                continue
            if requester_id is not None and record.requester_id != requester_id:
                continue
            if phase is not None and record.phase is not phase:
                continue
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result

    def denials(self, subject_id: Optional[str] = None) -> List[AuditRecord]:
        return self.records(
            subject_id=subject_id, predicate=lambda r: r.effect is Effect.DENY
        )

    def summary(self) -> Dict[str, int]:
        """Counts by outcome, for dashboards and benchmarks."""
        counts: Counter = Counter()
        for record in self._records:
            counts[record.effect.value] += 1
            if record.allowed and record.granularity is not GranularityLevel.PRECISE:
                counts["degraded"] += 1
            if record.notify_user:
                counts["notify"] += 1
        counts["total"] = len(self._records)
        counts["dropped"] = self.dropped
        return dict(counts)
