"""Privacy mechanisms: the "how" of enforcement.

Each mechanism transforms data so it conforms to a granted granularity
level.  They are pure functions (noise takes an explicit RNG) so their
behaviour is reproducible and property-testable.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.language.vocabulary import GranularityLevel
from repro.errors import EnforcementError
from repro.sensors.base import Observation
from repro.sensors.ontology import SensorOntology
from repro.spatial.model import SpaceType, SpatialModel

#: Which spatial level each granularity maps to when coarsening a
#: location: precise keeps the room, coarse reports the floor, building
#: and aggregate report the building.
_GRANULARITY_TO_SPACE_LEVEL = {
    GranularityLevel.COARSE: SpaceType.FLOOR,
    GranularityLevel.BUILDING: SpaceType.BUILDING,
    GranularityLevel.AGGREGATE: SpaceType.BUILDING,
}


def coarsen_space(
    space_id: Optional[str],
    level: GranularityLevel,
    spatial: Optional[SpatialModel],
) -> Optional[str]:
    """The space id reported at ``level``.

    PRECISE keeps the space; NONE hides it entirely; intermediate levels
    walk up the hierarchy.  Without a spatial model (or for spaces above
    the target level already) the original id is kept, which never
    reveals *more* than requested only when callers pass a model -- so a
    missing model falls back to hiding the space for non-precise levels.
    """
    if space_id is None or level is GranularityLevel.PRECISE:
        return space_id
    if level is GranularityLevel.NONE:
        return None
    if spatial is None or space_id not in spatial:
        return None
    target = _GRANULARITY_TO_SPACE_LEVEL[level]
    space = spatial.get(space_id)
    if space.space_type.granularity_rank <= target.granularity_rank:
        return space_id
    ancestor = spatial.ancestor_at_level(space_id, target)
    if ancestor is None:
        # No ancestor at the target level: report the coarsest ancestor.
        path = spatial.path_to_root(space_id)
        return path[-1].space_id
    return ancestor.space_id


def suppress_personal_fields(
    payload: Dict[str, object],
    personal_fields: Sequence[str],
    replacement: object = "[redacted]",
) -> Dict[str, object]:
    """A copy of ``payload`` with person-linked fields redacted."""
    return {
        key: (replacement if key in personal_fields else value)
        for key, value in payload.items()
    }


def degrade_observation(
    observation: Observation,
    level: GranularityLevel,
    spatial: Optional[SpatialModel] = None,
    ontology: Optional[SensorOntology] = None,
) -> Optional[Observation]:
    """``observation`` degraded to ``level``, or ``None`` when dropped.

    - PRECISE: returned unchanged.
    - COARSE: location coarsened to the floor.
    - BUILDING: location coarsened to the building.
    - AGGREGATE: additionally de-identified (subject dropped, personal
      payload fields redacted).
    - NONE: dropped entirely.
    """
    if level is GranularityLevel.NONE:
        return None
    if level is GranularityLevel.PRECISE:
        return observation
    space_id = coarsen_space(observation.space_id, level, spatial)
    payload = dict(observation.payload)
    subject_id = observation.subject_id
    if level is GranularityLevel.AGGREGATE:
        subject_id = None
        personal: List[str] = []
        if ontology is not None and observation.sensor_type in ontology:
            personal = ontology.get(observation.sensor_type).personal_fields
        payload = suppress_personal_fields(payload, personal)
    return Observation(
        observation_id=observation.observation_id,
        sensor_id=observation.sensor_id,
        sensor_type=observation.sensor_type,
        timestamp=observation.timestamp,
        space_id=space_id,
        payload=payload,
        subject_id=subject_id,
        granularity=level.value,
    )


def aggregate_counts(
    observations: Iterable[Observation],
    k: int = 3,
) -> Dict[str, int]:
    """Per-space counts, suppressing groups smaller than ``k``.

    A k-anonymity-style aggregate: spaces with fewer than ``k`` distinct
    subjects are omitted so small groups cannot be singled out.
    """
    if k < 1:
        raise EnforcementError("k must be >= 1")
    subjects_per_space: Dict[str, set] = {}
    for observation in observations:
        if observation.space_id is None or observation.subject_id is None:
            continue
        subjects_per_space.setdefault(observation.space_id, set()).add(
            observation.subject_id
        )
    return {
        space_id: len(subjects)
        for space_id, subjects in subjects_per_space.items()
        if len(subjects) >= k
    }


def laplace_noise(
    value: float,
    sensitivity: float = 1.0,
    epsilon: float = 1.0,
    rng: Optional[random.Random] = None,
) -> float:
    """``value`` plus Laplace(sensitivity/epsilon) noise.

    The classic differential-privacy perturbation used for numeric
    aggregates (e.g. noisy occupancy counts).  ``rng`` defaults to a
    deterministically seeded generator so repeated runs reproduce;
    pass your own for independent noise streams.
    """
    if epsilon <= 0:
        raise EnforcementError("epsilon must be positive")
    if sensitivity <= 0:
        raise EnforcementError("sensitivity must be positive")
    generator = rng if rng is not None else random.Random(0)
    scale = sensitivity / epsilon
    # Inverse-CDF sampling of the Laplace distribution.
    u = generator.random() - 0.5
    return value - scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def noisy_counts(
    counts: Dict[str, int],
    epsilon: float = 1.0,
    rng: Optional[random.Random] = None,
) -> Dict[str, float]:
    """Laplace-noised per-space counts (sensitivity 1 each).

    ``rng`` defaults to a deterministically seeded generator.
    """
    generator = rng if rng is not None else random.Random(0)
    return {
        key: laplace_noise(float(value), 1.0, epsilon, generator)
        for key, value in sorted(counts.items())
    }
