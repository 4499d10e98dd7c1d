"""Measured per-component costs behind the capacity soak's models.

The soak (:func:`repro.simulation.longrun.run_capacity_soak`) never
reads a wall clock -- its latency and memory numbers come from a *cost
table* applied to deterministic counts (rules evaluated, queue depth,
stored observations).  Early versions hard-coded round guesses for
those per-component costs; this module replaces them with values
**derived from the committed perf trajectory**, so the model tracks
what the benchmark suite actually measured:

- ``us_per_decision`` -- the indexed enforcement path's measured cost
  per decision (``scale_enforcement.extra.indexed_us_per_op``).
- ``us_per_rule`` -- the *marginal* cost of evaluating one more rule,
  taken as the gap between the linear and indexed evaluators spread
  over the rule count (``(linear - indexed) / rules``).
- ``us_per_queued_call`` -- the measured mean decision latency under
  admission-controlled overload (``scale_overload``), charged once per
  call of modeled backlog ahead of a request.
- the two state-size charges (bytes per principal, bytes per stored
  observation) are audit-derived estimates, not benchmark outputs;
  they ride along so the whole model lives in one frozen table.

:data:`DEFAULT_COST_TABLE` pins the derivation from trajectory record
**BENCH_0002** (the first record carrying the compiled-table suite) --
deliberately a fixed record, not ``latest_record()``: the soak's
reports must stay byte-identical as new trajectory points land, and a
recalibration should be an explicit, reviewed edit here.
:func:`cost_table_from_record` performs the same derivation on a
record's JSON, so tests can prove the pinned numbers match the
committed file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: The trajectory record DEFAULT_COST_TABLE's numbers were derived
#: from (see ``tests/test_capacity_soak.py``, which re-derives them).
COST_TABLE_SOURCE_RECORD_ID = 2


@dataclass(frozen=True)
class CostTable:
    """Per-component costs for the soak's latency and memory models."""

    #: Microseconds for one enforcement decision on the indexed path.
    us_per_decision: float = 24.4
    #: Marginal microseconds per policy rule evaluated past the index.
    us_per_rule: float = 0.044
    #: Microseconds of queueing delay per call of modeled backlog.
    us_per_queued_call: float = 26.0
    #: Resident bytes attributed to one principal: directory profile,
    #: preference rules, IoTA selection cache, and audit index share.
    principal_state_bytes: int = 3200
    #: Resident bytes per stored observation (datastore row + indexes).
    observation_state_bytes: int = 512

    def __post_init__(self) -> None:
        for name in ("us_per_decision", "us_per_rule", "us_per_queued_call"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)
        for name in ("principal_state_bytes", "observation_state_bytes"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)

    def modeled_p99_latency_us(
        self, rules_p99: float, queue_depth_p99: float
    ) -> float:
        """One decision's modeled p99: work plus queueing delay."""
        return round(
            self.us_per_decision
            + rules_p99 * self.us_per_rule
            + queue_depth_p99 * self.us_per_queued_call,
            3,
        )

    def modeled_state_bytes(
        self,
        population: int,
        wal_bytes: int,
        stored_observations: int,
        phantom_ratio: int,
    ) -> int:
        """Resident-state estimate: principals plus extrapolated rows."""
        return (
            population * self.principal_state_bytes
            + phantom_ratio * (
                wal_bytes
                + stored_observations * self.observation_state_bytes
            )
        )


#: The pinned table; every number re-derivable from BENCH_0002.
DEFAULT_COST_TABLE = CostTable()


def cost_table_from_record(record: Mapping[str, Any]) -> CostTable:
    """Derive a :class:`CostTable` from one trajectory record's JSON.

    ``record`` is the parsed JSON of a committed ``BENCH_<n>.json``,
    read as plain data: BENCH_0002 is a version-1 record, which the
    bench layer no longer loads.  Raises ``KeyError`` when the record
    lacks the fields the derivation needs.
    """
    enforcement = record["benchmarks"]["scale_enforcement"]["extra"]
    overload = record["benchmarks"]["scale_overload"]
    indexed = enforcement["indexed_us_per_op"]
    linear = enforcement["linear_us_per_op"]
    rules = enforcement["rules"]
    if rules <= 0:
        raise ValueError("record's scale_enforcement has no rules")
    return CostTable(
        us_per_decision=round(indexed, 1),
        us_per_rule=round((linear - indexed) / rules, 3),
        us_per_queued_call=round(overload["decision_latency"]["mean_us"], 1),
        principal_state_bytes=DEFAULT_COST_TABLE.principal_state_bytes,
        observation_state_bytes=DEFAULT_COST_TABLE.observation_state_bytes,
    )
