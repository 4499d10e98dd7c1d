"""Runtime enforcement of resolved policies.

Section V-C: the mapping of high-level policies onto the building
"determines the where (at devices or BMS), when (during capture,
storage, processing, or sharing) and how (accept/deny data access or
add noise) these policies and preferences should be enforced on the
user data".

- :mod:`repro.core.enforcement.mechanisms` -- the "how": granularity
  degradation, field suppression, aggregation, Laplace noise.
- :mod:`repro.core.enforcement.engine` -- the decision point: turns
  observations and queries into :class:`~repro.core.policy.base.DataRequest`
  objects, resolves them, and applies the chosen mechanism.
- :mod:`repro.core.enforcement.audit` -- an append-only audit log of
  every decision, which the IoTA and building admin can inspect.
- :mod:`repro.core.enforcement.compiled` -- the Section V-C
  optimization and the engine TIPPERS runs: decisions compiled into
  per-user tables, proven equivalent to the reference engine by
  ``tests/differential``.
- :mod:`repro.core.enforcement.tables` -- (de)serialization of compiled
  tables, so they round-trip through the WAL as advisory records.
"""

from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import Decision, EnforcementEngine
from repro.core.enforcement.mechanisms import (
    aggregate_counts,
    coarsen_space,
    degrade_observation,
    laplace_noise,
    suppress_personal_fields,
)
from repro.core.enforcement.tables import export_table, import_table

__all__ = [
    "EnforcementEngine",
    "CompiledEnforcementEngine",
    "Decision",
    "export_table",
    "import_table",
    "AuditLog",
    "AuditRecord",
    "coarsen_space",
    "degrade_observation",
    "suppress_personal_fields",
    "aggregate_counts",
    "laplace_noise",
]
