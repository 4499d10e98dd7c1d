"""Selective notification with a user-fatigue budget.

"The IoTA displays summaries of relevant elements of these policies to
the user ... by focusing on the elements of a policy that are important
with respect to the user's privacy preferences" (Section II-C), and the
open challenge is "when and how to notify a user and how to obtain user
feedback without inducing user fatigue" (Section V-B).

A practice is notified when its *relevance* -- how surprising and
sensitive it is for this user -- exceeds a threshold, subject to a
daily budget and per-practice deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.language.duration import SECONDS_PER_DAY
from repro.core.language.vocabulary import sensitivity_of
from repro.errors import PolicyError
from repro.iota.preference_model import DataPractice, PreferenceModel


@dataclass(frozen=True)
class Notification:
    """One message surfaced to the user."""

    timestamp: float
    practice: DataPractice
    relevance: float
    summary: str
    source: str = ""

    def __str__(self) -> str:
        return "[%.2f] %s" % (self.relevance, self.summary)


class NotificationManager:
    """Relevance-thresholded, budgeted notification selection."""

    def __init__(
        self,
        model: PreferenceModel,
        relevance_threshold: float = 0.4,
        daily_budget: int = 5,
    ) -> None:
        if not 0.0 <= relevance_threshold <= 1.0:
            raise PolicyError("relevance_threshold must lie in [0, 1]")
        if daily_budget < 0:
            raise PolicyError("daily_budget must be non-negative")
        self._model = model
        self.relevance_threshold = relevance_threshold
        self.daily_budget = daily_budget
        self._seen: Set[Tuple] = set()
        self._sent_today: Dict[int, int] = {}
        self.sent: List[Notification] = []
        self.suppressed_low_relevance = 0
        self.suppressed_duplicate = 0
        self.suppressed_budget = 0

    # ------------------------------------------------------------------
    # Relevance
    # ------------------------------------------------------------------
    def relevance(self, practice: DataPractice) -> float:
        """How much the user should care about ``practice``.

        The product of the practice's objective sensitivity and the
        user's predicted *discomfort* (1 - comfort): a practice the
        model already knows the user accepts scores low even when
        objectively sensitive, so routine accepted practices stop
        generating noise as the model learns.
        """
        objective = sensitivity_of(
            practice.category, practice.purpose, practice.granularity
        )
        discomfort = 1.0 - self._model.comfort(practice)
        return objective * (0.4 + 0.6 * discomfort)

    # ------------------------------------------------------------------
    # Offering
    # ------------------------------------------------------------------
    def _practice_key(self, practice: DataPractice, source: str) -> Tuple:
        return (
            source,
            practice.category,
            practice.purpose,
            practice.granularity,
            practice.third_party,
        )

    def offer(
        self,
        now: float,
        practice: DataPractice,
        summary: str,
        source: str = "",
    ) -> Optional[Notification]:
        """Maybe notify the user about ``practice``.

        Returns the notification when sent, ``None`` when suppressed
        (below threshold, already seen, or today's budget exhausted).
        """
        key = self._practice_key(practice, source)
        if key in self._seen:
            self.suppressed_duplicate += 1
            return None
        score = self.relevance(practice)
        if score < self.relevance_threshold:
            self._seen.add(key)
            self.suppressed_low_relevance += 1
            return None
        day = int(now // SECONDS_PER_DAY)
        if self._sent_today.get(day, 0) >= self.daily_budget:
            # Budget exhausted: do NOT mark as seen so the practice can
            # be surfaced tomorrow.
            self.suppressed_budget += 1
            return None
        self._seen.add(key)
        self._sent_today[day] = self._sent_today.get(day, 0) + 1
        notification = Notification(
            timestamp=now,
            practice=practice,
            relevance=score,
            summary=summary,
            source=source,
        )
        self.sent.append(notification)
        return notification

    def stats(self) -> Dict[str, int]:
        return {
            "sent": len(self.sent),
            "suppressed_low_relevance": self.suppressed_low_relevance,
            "suppressed_duplicate": self.suppressed_duplicate,
            "suppressed_budget": self.suppressed_budget,
        }
