"""Data-subject access and erasure.

The paper's framework gives inhabitants visibility and control going
*forward* (notifications, settings).  A credible deployment also needs
the retrospective half: "what does the building hold about me right
now, and make it stop".  This module implements both primitives on top
of the datastore, audit log, and preference manager:

- :func:`subject_access_report` -- everything TIPPERS associates with
  a user: stored observations (by stream), the enforcement decisions
  taken about them (every one in the durable trail when TIPPERS is
  storage-backed), their active preferences and current conflicts,
  and the building policies whose scope can cover them.
- :func:`erase_subject` -- delete every stored observation attributed
  to the user, withdraw their preferences (optionally), and record the
  erasure in the audit log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.enforcement.audit import AuditRecord
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import PolicyError
from repro.tippers.bms import TIPPERS


@dataclass(frozen=True)
class SubjectAccessReport:
    """Everything the building holds about one person."""

    user_id: str
    generated_at: float
    observations_by_stream: Dict[str, int]
    earliest_observation: Optional[float]
    latest_observation: Optional[float]
    decisions_total: int
    decisions_denied: int
    decisions_overridden: int
    preferences: Tuple[str, ...]
    conflicts: Tuple[str, ...]
    covering_policies: Tuple[str, ...]

    @property
    def observations_total(self) -> int:
        return sum(self.observations_by_stream.values())

    def summary_lines(self) -> List[str]:
        """Human-readable rendering for the IoTA to display."""
        lines = [
            "Subject access report for %s (t=%.0f)" % (self.user_id, self.generated_at),
            "stored observations: %d" % self.observations_total,
        ]
        for stream, count in sorted(self.observations_by_stream.items()):
            lines.append("  - %s: %d" % (stream, count))
        if self.earliest_observation is not None:
            lines.append(
                "observation window: %.0f .. %.0f"
                % (self.earliest_observation, self.latest_observation)
            )
        lines.append(
            "enforcement decisions about you: %d (%d denied, %d overrode your preference)"
            % (self.decisions_total, self.decisions_denied, self.decisions_overridden)
        )
        lines.append("active preferences: %d" % len(self.preferences))
        lines.append("current conflicts with building policy: %d" % len(self.conflicts))
        lines.append(
            "building policies that can cover your data: %s"
            % (", ".join(self.covering_policies) or "none")
        )
        return lines


@dataclass(frozen=True)
class ErasureReceipt:
    """Proof of an erasure request's effect."""

    user_id: str
    erased_observations: int
    withdrawn_preferences: int
    performed_at: float
    storage_compacted: bool = False


def subject_access_report(tippers: TIPPERS, user_id: str, now: float) -> SubjectAccessReport:
    """Compile the access report for ``user_id``."""
    if user_id not in tippers.directory:
        raise PolicyError("unknown user %r" % user_id)
    observations = tippers.datastore.query(subject_id=user_id)
    by_stream: Dict[str, int] = {}
    for observation in observations:
        by_stream[observation.sensor_type] = by_stream.get(observation.sensor_type, 0) + 1

    decisions = tippers.audit.records(subject_id=user_id)
    denied = sum(1 for r in decisions if r.effect is Effect.DENY)
    overridden = sum(1 for r in decisions if r.notify_user and r.effect is Effect.ALLOW)

    preferences = tuple(
        p.preference_id for p in tippers.preference_manager.preferences_of(user_id)
    )
    conflicts = tuple(
        c.describe() for c in tippers.preference_manager.conflicts_of(user_id)
    )
    covering = tuple(
        p.policy_id
        for p in tippers.policy_manager.policies()
        if p.effect is Effect.ALLOW and p.collects_personal_data
    )
    return SubjectAccessReport(
        user_id=user_id,
        generated_at=now,
        observations_by_stream=by_stream,
        earliest_observation=observations[0].timestamp if observations else None,
        latest_observation=observations[-1].timestamp if observations else None,
        decisions_total=len(decisions),
        decisions_denied=denied,
        decisions_overridden=overridden,
        preferences=preferences,
        conflicts=conflicts,
        covering_policies=covering,
    )


def erase_subject(
    tippers: TIPPERS,
    user_id: str,
    now: float,
    withdraw_preferences: bool = False,
    compact_storage: bool = False,
) -> ErasureReceipt:
    """Erase the user's stored observations (and optionally preferences).

    The erasure itself lands in the audit log as an allowed
    storage-phase decision with an explanatory reason, so the trail of
    *that the data existed and was erased* survives, while the data
    does not.

    On a storage-backed TIPPERS the erase record is write-ahead-logged,
    so recovery replays it and never resurrects the erased data.  With
    ``compact_storage`` the storage engine is compacted immediately
    after, which *physically* removes the erased observations from
    disk instead of leaving them in WAL segments awaiting the next
    compaction.
    """
    if user_id not in tippers.directory:
        raise PolicyError("unknown user %r" % user_id)
    erased = tippers.datastore.forget_subject(user_id)
    withdrawn = 0
    if withdraw_preferences:
        withdrawn = tippers.preference_manager.withdraw_all(user_id)
    tippers.audit.append(
        AuditRecord(
            timestamp=now,
            requester_id=user_id,
            phase=DecisionPhase.STORAGE,
            category="erasure",
            subject_id=user_id,
            space_id=None,
            effect=Effect.ALLOW,
            granularity=GranularityLevel.NONE,
            reasons=(
                "subject erasure: %d observations deleted" % erased,
            ),
            notify_user=False,
        )
    )
    compacted = False
    if compact_storage and tippers.storage is not None:
        tippers.storage.compact(
            retention_by_type=tippers.policy_manager.retention_by_sensor_type(),
            now=now,
        )
        compacted = True
    return ErasureReceipt(
        user_id=user_id,
        erased_observations=erased,
        withdrawn_preferences=withdrawn,
        performed_at=now,
        storage_compacted=compacted,
    )
