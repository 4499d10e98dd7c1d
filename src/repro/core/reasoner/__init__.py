"""Policy reasoning: matching, conflicts, resolution, indexing.

The paper requires that conflicts between building policies and user
preferences "should be detected by the smart building management system
(e.g., with the help of a policy reasoner) which is in charge of
enforcing the policies by resolving these conflicts while informing
users about it" (Section III-B), and that enforcement be optimized "so
that the overhead of privacy compliance is minimized" (Section V-C).

- :mod:`repro.core.reasoner.matcher` -- which rules govern a request.
- :mod:`repro.core.reasoner.conflicts` -- static and per-request
  conflict detection.
- :mod:`repro.core.reasoner.resolution` -- strategies that combine the
  building's and the user's stances into one decision.
- :mod:`repro.core.reasoner.index` -- candidate-rule indexes that make
  matching sublinear in the number of rules.
"""

from repro.core.reasoner.conflicts import Conflict, ConflictKind, detect_conflicts
from repro.core.reasoner.index import LinearRuleStore, PolicyIndex, RuleStore
from repro.core.reasoner.matcher import MatchResult, PolicyMatcher
from repro.core.reasoner.resolution import (
    Resolution,
    ResolutionStrategy,
    resolve,
)

__all__ = [
    "PolicyMatcher",
    "MatchResult",
    "Conflict",
    "ConflictKind",
    "detect_conflicts",
    "Resolution",
    "ResolutionStrategy",
    "resolve",
    "RuleStore",
    "LinearRuleStore",
    "PolicyIndex",
]
