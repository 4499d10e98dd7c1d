"""Privacy personas and synthetic labeled decisions.

The paper's learner needs "labeled data over a period of time"; the
original project gathered it from user studies we cannot re-run.  We
substitute Westin-style privacy personas -- *unconcerned*, *pragmatist*,
*fundamentalist* -- each a ground-truth comfort function over data
practices.  :func:`generate_decisions` samples practices and labels
them with persona-consistent (optionally noisy) decisions, which is the
closest synthetic equivalent of the study data and exercises the same
learning code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.language.vocabulary import (
    DataCategory,
    GranularityLevel,
    Purpose,
    sensitivity_of,
)
from repro.errors import PolicyError
from repro.iota.preference_model import DataPractice, LabeledDecision


@dataclass(frozen=True)
class Persona:
    """A ground-truth comfort function over data practices.

    ``tolerance`` is the sensitivity level above which the persona
    rejects a practice; ``third_party_penalty`` is added to a
    practice's sensitivity when the data leaves the building.
    """

    name: str
    tolerance: float
    third_party_penalty: float = 0.2
    retention_penalty_per_year: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerance <= 1.5:
            raise PolicyError("tolerance must lie in [0, 1.5]")

    def discomfort(self, practice: DataPractice) -> float:
        """How uncomfortable the persona is with ``practice``."""
        score = sensitivity_of(
            practice.category, practice.purpose, practice.granularity
        )
        if practice.third_party:
            score += self.third_party_penalty
        score += self.retention_penalty_per_year * (practice.retention_days / 365.0)
        return score

    def allows(self, practice: DataPractice) -> bool:
        return self.discomfort(practice) <= self.tolerance

    def decide(
        self, practice: DataPractice, rng: Optional[random.Random] = None, noise: float = 0.0
    ) -> LabeledDecision:
        """The persona's (possibly noisy) decision on ``practice``.

        ``rng`` defaults to a deterministically seeded generator.
        """
        allowed = self.allows(practice)
        if noise > 0.0:
            generator = rng if rng is not None else random.Random(0)
            if generator.random() < noise:
                allowed = not allowed
        return LabeledDecision(practice=practice, allowed=allowed)


#: The three Westin segments, tuned so that on the practice space below
#: the unconcerned persona accepts nearly everything, the fundamentalist
#: rejects most person-linked practices, and the pragmatist splits on
#: purpose and granularity.
PERSONAS: Dict[str, Persona] = {
    "unconcerned": Persona(name="unconcerned", tolerance=0.85),
    "pragmatist": Persona(name="pragmatist", tolerance=0.45),
    "fundamentalist": Persona(name="fundamentalist", tolerance=0.18),
}


#: The practice space sampled when generating decisions: the categories
#: and purposes that actually occur in a smart building.
PRACTICE_CATEGORIES: Tuple[DataCategory, ...] = (
    DataCategory.LOCATION,
    DataCategory.PRESENCE,
    DataCategory.OCCUPANCY,
    DataCategory.IDENTITY,
    DataCategory.ACTIVITY,
    DataCategory.ENERGY_USE,
    DataCategory.MEETING_DETAILS,
)

PRACTICE_PURPOSES: Tuple[Purpose, ...] = (
    Purpose.EMERGENCY_RESPONSE,
    Purpose.PROVIDING_SERVICE,
    Purpose.SECURITY,
    Purpose.COMFORT,
    Purpose.ENERGY_MANAGEMENT,
    Purpose.RESEARCH,
    Purpose.MARKETING,
)

PRACTICE_GRANULARITIES: Tuple[GranularityLevel, ...] = (
    GranularityLevel.PRECISE,
    GranularityLevel.COARSE,
    GranularityLevel.BUILDING,
    GranularityLevel.AGGREGATE,
)


def sample_practice(rng: random.Random) -> DataPractice:
    """One uniformly sampled practice from the smart-building space."""
    return DataPractice(
        category=rng.choice(PRACTICE_CATEGORIES),
        purpose=rng.choice(PRACTICE_PURPOSES),
        granularity=rng.choice(PRACTICE_GRANULARITIES),
        retention_days=rng.choice((1.0, 7.0, 30.0, 180.0, 365.0)),
        third_party=rng.random() < 0.25,
    )


def generate_decisions(
    persona: Persona,
    count: int,
    seed: int = 0,
    noise: float = 0.05,
) -> List[LabeledDecision]:
    """``count`` persona-labeled decisions over sampled practices.

    ``noise`` flips each label with the given probability, modelling
    the inconsistency real users show in studies.
    """
    if count < 0:
        raise PolicyError("count must be non-negative")
    rng = random.Random(seed)
    return [
        persona.decide(sample_practice(rng), rng=rng, noise=noise)
        for _ in range(count)
    ]
