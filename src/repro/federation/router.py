"""The federation router: one bus, many buildings, deterministic homes.

Every building's TIPPERS shard and IoT Resource Registry register on
the shared campus :class:`~repro.net.bus.MessageBus` under prefixed
endpoint names (``tippers-<building>``, ``irr-<building>``).  The
router owns the :class:`~repro.federation.ring.HashRing` that maps a
principal to their *home building* and addresses every cross-shard call
through the bus -- which means federation traffic flows through the
same admission control, circuit breakers, and deadline budgets as
single-building traffic.  A routed call makes one attempt under a
:data:`ROUTER_CALL_DEADLINE_S` budget.  There is no privileged side
channel between shards: a DSAR fan-out competes for admission like any
other CRITICAL call, and a roaming IoTA's re-push can be shed exactly
like a local one (it cannot: preference submission is CRITICAL).

Elastic membership rides the same router: ring changes go through
:meth:`FederationRouter.add_building` / :meth:`remove_building`, a
*draining* building stays addressable (for migration export and
tombstone calls) after leaving the ring, and calls for a principal who
is mid-migration are forwarded to the **new** home only, carrying a
``migrating:<from>:<to>`` marker the enforcement path audits.  There is
deliberately no fallback to the source shard: if the destination cannot
confirm, the call fails and enforcement stays fail-closed -- a stale
ALLOW from the source could outlive a preference change or a DSAR that
already landed at the destination.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import FederationError
from repro.federation.ring import DEFAULT_VNODES, HashRing
from repro.net.bus import MessageBus
from repro.net.resilience import Deadline
from repro.obs.metrics import MetricsRegistry, get_registry

#: Endpoint-name prefixes for per-building shards.  These are the
#: campus bus's naming contract: the TIPPERS shard of building
#: ``bldg-a`` answers on ``tippers-bldg-a`` and its registry on
#: ``irr-bldg-a``.  The privacy-flow analyzer resolves calls through
#: these prefixes, so keep them as module-level constants.
SHARD_ENDPOINT_PREFIX = "tippers-"
REGISTRY_ENDPOINT_PREFIX = "irr-"

#: Simulated-time budget for one routed call.  Generous on purpose --
#: it bounds retries (lint rule C007), it does not shape traffic.
ROUTER_CALL_DEADLINE_S = 30.0


class FederationRouter:
    """Routes principals and calls to their owning building shard."""

    def __init__(
        self,
        bus: MessageBus,
        building_ids: Sequence[str],
        vnodes: int = DEFAULT_VNODES,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not building_ids:
            raise FederationError("a federation needs at least one building")
        self._bus = bus
        self._ring = HashRing(building_ids, vnodes=vnodes)
        self.metrics = metrics if metrics is not None else get_registry()
        #: Buildings off the ring but still addressable: a drained
        #: building keeps serving migration export/tombstone calls until
        #: it is decommissioned.
        self._draining: set = set()
        #: principal_id -> (from_building, to_building) while the
        #: principal's data is mid-flight between shards.
        self._migrating: Dict[str, Tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def ring(self) -> HashRing:
        return self._ring

    def building_ids(self) -> Tuple[str, ...]:
        """Every federated building, sorted."""
        return self._ring.nodes()

    def home_building(self, principal_id: str) -> str:
        """The building whose shard is ``principal_id``'s home."""
        return self._ring.node_for(principal_id)

    def shard_endpoint(self, building_id: str) -> str:
        """The bus endpoint of ``building_id``'s TIPPERS shard."""
        self._require(building_id)
        return SHARD_ENDPOINT_PREFIX + building_id

    def registry_endpoint(self, building_id: str) -> str:
        """The bus endpoint of ``building_id``'s IoT Resource Registry."""
        self._require(building_id)
        return REGISTRY_ENDPOINT_PREFIX + building_id

    def is_callable(self, building_id: str) -> bool:
        """Whether the building is addressable (on the ring or draining)."""
        return building_id in self._ring or building_id in self._draining

    def _require(self, building_id: str) -> None:
        if not self.is_callable(building_id):
            # Counted rejection: the unknown-membership attempt shows up
            # in metrics even though it never reaches the admission
            # ledger (the bus is not consulted for a building that does
            # not exist).
            self.metrics.counter(
                "federation_unknown_building_total", {"building": building_id}
            ).inc()
            raise FederationError(
                "building %r is not part of this federation (have: %s)"
                % (building_id, ", ".join(self._ring.nodes()))
            )

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def add_building(
        self, building_id: str, keys: Sequence[str] = ()
    ) -> Dict[str, Tuple[str, str]]:
        """Add a building to the ring; returns the migration delta."""
        delta = self._ring.add_building(building_id, keys=keys)
        self._draining.discard(building_id)
        self.metrics.counter(
            "federation_ring_changes_total", {"change": "add"}
        ).inc()
        return delta

    def begin_drain(
        self, building_id: str, keys: Sequence[str] = ()
    ) -> Dict[str, Tuple[str, str]]:
        """Take a building off the ring but keep it addressable.

        New placements skip the building immediately; the shard itself
        keeps serving migration export/finalize (and DSAR) calls until
        :meth:`finish_drain` / decommissioning.
        """
        delta = self._ring.remove_building(building_id, keys=keys)
        self._draining.add(building_id)
        self.metrics.counter(
            "federation_ring_changes_total", {"change": "drain"}
        ).inc()
        return delta

    def finish_drain(self, building_id: str) -> None:
        """The drained building is gone; stop addressing it."""
        self._draining.discard(building_id)

    @property
    def ring_version(self) -> int:
        return self._ring.version

    # ------------------------------------------------------------------
    # Mid-migration forwarding
    # ------------------------------------------------------------------
    def mark_migrating(
        self, principal_id: str, from_building: str, to_building: str
    ) -> None:
        self._migrating[principal_id] = (from_building, to_building)

    def clear_migrating(self, principal_id: str) -> None:
        self._migrating.pop(principal_id, None)

    def migration_of(self, principal_id: str) -> Optional[Tuple[str, str]]:
        """``(from, to)`` while the principal is mid-migration, else None."""
        return self._migrating.get(principal_id)

    def migrating_principals(self) -> Tuple[str, ...]:
        return tuple(sorted(self._migrating))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def call_building(
        self,
        building_id: str,
        method: str,
        payload: Dict[str, Any],
        principal: Optional[str] = None,
    ) -> Dict[str, Any]:
        """One admission-checked bus call to a specific building's shard.

        Raises whatever the bus raises -- admission sheds, open
        breakers, RPC failures -- so callers keep the same error
        taxonomy they have for single-building calls.
        """
        self._require(building_id)
        self.metrics.counter(
            "federation_routed_calls_total", {"building": building_id}
        ).inc()
        return self._bus.call(
            SHARD_ENDPOINT_PREFIX + building_id,
            method,
            payload,
            deadline=Deadline(ROUTER_CALL_DEADLINE_S),
            principal=principal,
        )

    def call_home(
        self,
        principal_id: str,
        method: str,
        payload: Dict[str, Any],
        principal: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Route a call to ``principal_id``'s home shard.

        While the principal is mid-migration the call is *forwarded* to
        the new home -- never the source -- with a
        ``migrating:<from>:<to>`` marker injected into the payload so
        the decision it produces is audited as a forwarded one.  If the
        destination cannot confirm (dark, or the import has not landed
        yet) the call fails like any other bus failure: fail-closed by
        construction, because no path can return a stale source-side
        ALLOW.
        """
        migration = self._migrating.get(principal_id)
        target = self.home_building(principal_id)
        if migration is not None:
            from_building, to_building = migration
            target = to_building
            payload = dict(payload)
            payload["migration_marker"] = "migrating:%s:%s" % (
                from_building, to_building,
            )
            self.metrics.counter(
                "federation_forwarded_calls_total", {"building": to_building}
            ).inc()
        return self.call_building(
            target,
            method,
            payload,
            principal=principal if principal is not None else principal_id,
        )
