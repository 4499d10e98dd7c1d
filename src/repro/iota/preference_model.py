"""A learned model of a user's privacy preferences.

The paper: "the assistant requires labeled data over a period of time
to decipher the patterns in a user's behavior and represent them as
preferences for the user" (Section V-B), citing Liu et al.'s
personalized privacy assistant for mobile app permissions.

We model each *data practice* as a feature vector and learn a logistic
regression over the user's allow/deny decisions -- implemented from
scratch (batch gradient descent) so the library has no ML dependency
and the behaviour is fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.language.vocabulary import (
    DATA_SENSITIVITY,
    PURPOSE_TAXONOMY,
    DataCategory,
    GranularityLevel,
    Purpose,
)
from repro.errors import PolicyError


@dataclass(frozen=True)
class DataPractice:
    """One data practice a user can accept or reject."""

    category: DataCategory
    purpose: Purpose
    granularity: GranularityLevel = GranularityLevel.PRECISE
    retention_days: float = 30.0
    third_party: bool = False

    def features(self) -> Tuple[float, ...]:
        """The practice as a feature vector in [0, 1]^6 (plus bias).

        Features: data sensitivity, purpose sensitivity, shared beyond
        the building, user benefit, granularity fineness, log-scaled
        retention.
        """
        info = PURPOSE_TAXONOMY[self.purpose]
        retention = min(1.0, math.log1p(max(0.0, self.retention_days)) / math.log1p(365.0))
        return (
            DATA_SENSITIVITY[self.category],
            info.sensitivity,
            1.0 if (info.shared_beyond_building or self.third_party) else 0.0,
            1.0 if info.benefits_user_directly else 0.0,
            self.granularity.rank / 4.0,
            retention,
        )


#: Human-readable names of the feature dimensions, for introspection.
FEATURE_NAMES: Tuple[str, ...] = (
    "data_sensitivity",
    "purpose_sensitivity",
    "shared_beyond_building",
    "benefits_user",
    "granularity",
    "retention",
)


@dataclass(frozen=True)
class LabeledDecision:
    """One observed user decision about a practice."""

    practice: DataPractice
    allowed: bool


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class PreferenceModel:
    """Logistic regression over practice features.

    Positive class = "the user is comfortable" (allows the practice).
    The model starts with a privacy-protective prior (sensitive and
    shared practices predicted uncomfortable) so a fresh assistant errs
    on the side of protecting the user until it has data.
    """

    #: Prior weights: negative on sensitivity/sharing/granularity and
    #: retention, positive on direct user benefit.
    _PRIOR = (-2.0, -1.5, -2.5, 1.5, -1.0, -0.5)
    _PRIOR_BIAS = 1.5

    def __init__(
        self,
        learning_rate: float = 0.5,
        l2: float = 0.01,
        epochs: int = 200,
    ) -> None:
        if learning_rate <= 0 or epochs <= 0:
            raise PolicyError("learning_rate and epochs must be positive")
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.weights: List[float] = list(self._PRIOR)
        self.bias: float = self._PRIOR_BIAS
        self.trained_on: int = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, decisions: Sequence[LabeledDecision]) -> "PreferenceModel":
        """Fit the model to ``decisions`` (starting from the prior)."""
        if not decisions:
            return self
        xs = [d.practice.features() for d in decisions]
        ys = [1.0 if d.allowed else 0.0 for d in decisions]
        n = len(xs)
        dims = len(xs[0])
        weights = list(self._PRIOR)
        bias = self._PRIOR_BIAS
        for _ in range(self.epochs):
            grad_w = [0.0] * dims
            grad_b = 0.0
            for x, y in zip(xs, ys):
                p = _sigmoid(bias + sum(w * f for w, f in zip(weights, x)))
                error = p - y
                for j in range(dims):
                    grad_w[j] += error * x[j]
                grad_b += error
            for j in range(dims):
                weights[j] -= self.learning_rate * (
                    grad_w[j] / n + self.l2 * weights[j]
                )
            bias -= self.learning_rate * grad_b / n
        self.weights = weights
        self.bias = bias
        self.trained_on = n
        return self

    def update(self, decision: LabeledDecision, steps: int = 5) -> None:
        """Online update from a single new decision."""
        x = decision.practice.features()
        y = 1.0 if decision.allowed else 0.0
        for _ in range(steps):
            p = _sigmoid(self.bias + sum(w * f for w, f in zip(self.weights, x)))
            error = p - y
            for j in range(len(self.weights)):
                self.weights[j] -= self.learning_rate * error * x[j]
            self.bias -= self.learning_rate * error
        self.trained_on += 1

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def comfort(self, practice: DataPractice) -> float:
        """P(user allows ``practice``), in [0, 1]."""
        x = practice.features()
        return _sigmoid(self.bias + sum(w * f for w, f in zip(self.weights, x)))

    def would_allow(self, practice: DataPractice, threshold: float = 0.5) -> bool:
        return self.comfort(practice) >= threshold

    def accuracy(self, decisions: Sequence[LabeledDecision]) -> float:
        """Fraction of ``decisions`` the model predicts correctly."""
        if not decisions:
            raise PolicyError("cannot score on an empty decision set")
        correct = sum(
            1
            for d in decisions
            if self.would_allow(d.practice) == d.allowed
        )
        return correct / len(decisions)

    def preferred_granularity(
        self,
        category: DataCategory,
        purpose: Purpose,
        offered: Sequence[GranularityLevel],
        threshold: float = 0.5,
        retention_days: float = 30.0,
        third_party: bool = False,
    ) -> GranularityLevel:
        """The finest offered granularity the user is comfortable with.

        Falls back to the coarsest offered level when the user is
        uncomfortable with all of them.
        """
        if not offered:
            raise PolicyError("offered granularities must be non-empty")
        acceptable = [
            level
            for level in offered
            if self.would_allow(
                DataPractice(
                    category=category,
                    purpose=purpose,
                    granularity=level,
                    retention_days=retention_days,
                    third_party=third_party,
                ),
                threshold,
            )
        ]
        if acceptable:
            return max(acceptable, key=lambda g: g.rank)
        return min(offered, key=lambda g: g.rank)

    def explain(self) -> Dict[str, float]:
        """Feature -> learned weight (plus the bias)."""
        result = dict(zip(FEATURE_NAMES, self.weights))
        result["bias"] = self.bias
        return result
