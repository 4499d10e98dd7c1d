"""A campus: independently-WAL'd TIPPERS shards behind one bus.

Each building gets its own spatial model, TIPPERS instance, sensor
deployment, policy set, IoT Resource Registry, and (when a
``storage_root`` is given) its own write-ahead-logged storage directory
-- shards share *nothing* but the campus :class:`~repro.net.bus.
MessageBus` and the :class:`~repro.federation.router.FederationRouter`
that consistent-hashes principals onto them.

The campus also keeps the two pieces of metadata a federation needs
that no single shard can own:

- the **resident registry** (who lives where, which the hash ring
  decides) -- used to re-seed a shard's user directory after a crash,
  since directories are rebuilt from campus metadata while
  observations, audit, and preferences replay from the shard's own WAL;
- the **presence ledger** (which buildings ever observed a subject) --
  the fan-out set for campus-wide DSAR handling in
  :mod:`repro.federation.dsar`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.policy import catalog
from repro.errors import FederationError
from repro.federation.ring import DEFAULT_VNODES
from repro.federation.router import (
    REGISTRY_ENDPOINT_PREFIX,
    SHARD_ENDPOINT_PREFIX,
    FederationRouter,
)
from repro.irr.registry import IoTResourceRegistry
from repro.net.admission import AdmissionController
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer
from repro.spatial.model import SpaceType, SpatialModel, build_simple_building
from repro.tippers.bms import TIPPERS
from repro.tippers.sensor_manager import SensorHealthSupervisor
from repro.users.profile import UserProfile

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.storage.durable import StorageEngine
    from repro.storage.recovery import RecoveryReport


def build_compact_tippers(
    spatial: SpatialModel, building_id: str, owner_name: str, **tippers_options: Any
) -> TIPPERS:
    """A capture-enforcing TIPPERS over ``spatial`` provisioned as a
    compact building: an access point and a motion sensor in every room,
    then the service-sharing, emergency-location and comfort policies."""
    tippers = TIPPERS(
        spatial, building_id, owner_name=owner_name, enforce_capture=True,
        **tippers_options
    )
    rooms = sorted(s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM))
    for index, room in enumerate(rooms):
        tippers.deploy_sensor("wifi_access_point", "ap-%02d" % (index + 1), room)
        tippers.deploy_sensor("motion_sensor", "motion-%02d" % (index + 1), room)
    tippers.define_policy(catalog.policy_service_sharing(building_id))
    tippers.define_policy(catalog.policy_2_emergency_location(building_id))
    tippers.define_policy(catalog.policy_1_comfort(rooms))
    return tippers


@dataclass
class CampusShard:
    """One building's slice of the federation."""

    building_id: str
    spatial: SpatialModel
    tippers: TIPPERS
    registry: IoTResourceRegistry
    supervisor: SensorHealthSupervisor
    storage: Optional["StorageEngine"] = None
    residents: List[UserProfile] = field(default_factory=list)
    down: bool = False

    @property
    def endpoint(self) -> str:
        return SHARD_ENDPOINT_PREFIX + self.building_id

    @property
    def registry_endpoint(self) -> str:
        return REGISTRY_ENDPOINT_PREFIX + self.building_id


class Campus:
    """Builds and operates the sharded campus."""

    def __init__(
        self,
        building_ids: Sequence[str],
        seed: int = 0,
        floors: int = 2,
        rooms_per_floor: int = 4,
        storage_root: Optional[str] = None,
        segment_bytes: int = 8 * 1024,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        admission: Optional[AdmissionController] = None,
        vnodes: int = DEFAULT_VNODES,
        owner_name: str = "Campus Operations",
    ) -> None:
        if len(set(building_ids)) != len(building_ids) or not building_ids:
            raise FederationError("building ids must be unique and non-empty")
        self.seed = seed
        self.metrics = metrics if metrics is not None else get_registry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._storage_root = storage_root
        self._segment_bytes = segment_bytes
        self._owner_name = owner_name
        self._floors = floors
        self._rooms_per_floor = rooms_per_floor
        self.bus = MessageBus(
            metrics=self.metrics,
            tracer=self.tracer,
            breakers=BreakerBoard(),
            admission=admission,
        )
        self.router = FederationRouter(
            self.bus, building_ids, vnodes=vnodes, metrics=self.metrics
        )
        self._shards: Dict[str, CampusShard] = {}
        #: user_id -> home building (always the router's ring choice).
        self.home_of: Dict[str, str] = {}
        self._profiles: Dict[str, UserProfile] = {}
        #: subject -> buildings whose sensors ever observed them.
        self._presence: Dict[str, Set[str]] = {}
        #: Buildings decommissioned after a drain (history, not topology).
        self.decommissioned: List[str] = []
        for index, building_id in enumerate(sorted(building_ids)):
            self._shards[building_id] = self._build_shard(building_id, index)
        # Supervisor seeds stay deterministic as buildings come and go:
        # each new shard takes the next index, never a recycled one.
        self._next_shard_index = len(self._shards)

    # ------------------------------------------------------------------
    # Shard construction
    # ------------------------------------------------------------------
    def _shard_storage(self, building_id: str) -> Optional["StorageEngine"]:
        if self._storage_root is None:
            return None
        from repro.storage.durable import StorageEngine

        directory = os.path.join(self._storage_root, building_id)
        return StorageEngine(
            directory, segment_bytes=self._segment_bytes, metrics=self.metrics
        )

    def _build_shard(self, building_id: str, index: int) -> CampusShard:
        spatial = build_simple_building(
            building_id,
            floors=self._floors,
            rooms_per_floor=self._rooms_per_floor,
        )
        supervisor = SensorHealthSupervisor(
            miss_threshold=3,
            probe_rate=0.5,
            seed=self.seed + index,
            metrics=self.metrics,
        )
        storage = self._shard_storage(building_id)
        tippers = build_compact_tippers(
            spatial,
            building_id,
            self._owner_name,
            metrics=self.metrics,
            storage=storage,
            health_supervisor=supervisor,
        )
        registry = IoTResourceRegistry(
            REGISTRY_ENDPOINT_PREFIX + building_id, spatial
        )
        registry.publish_resource(
            "%s-building-policies" % building_id,
            building_id,
            tippers.policy_manager.compile_policy_document(),
            settings=tippers.policy_manager.settings_space.to_document(),
        )
        self.bus.register(SHARD_ENDPOINT_PREFIX + building_id, tippers)
        self.bus.register(REGISTRY_ENDPOINT_PREFIX + building_id, registry)
        return CampusShard(
            building_id=building_id,
            spatial=spatial,
            tippers=tippers,
            registry=registry,
            supervisor=supervisor,
            storage=storage,
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def building_ids(self) -> Tuple[str, ...]:
        return self.router.building_ids()

    def shard(self, building_id: str) -> CampusShard:
        try:
            return self._shards[building_id]
        except KeyError:
            raise FederationError("unknown building %r" % building_id) from None

    def shards(self) -> List[CampusShard]:
        return [self._shards[b] for b in sorted(self._shards)]

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def add_building(self, building_id: str) -> Dict[str, Tuple[str, str]]:
        """Stand up a new shard and join it to the ring.

        Returns the migration delta: ``user_id -> (old_home, new_home)``
        for every campus user whose ring assignment moved.  The delta is
        a *plan*, not an action -- nothing migrates until a
        :class:`~repro.federation.rebalance.RebalanceCoordinator`
        executes it, so ``home_of`` still names the old (and still
        authoritative) shard for each moved user.
        """
        if building_id in self._shards:
            raise FederationError("building %r already exists" % building_id)
        shard = self._build_shard(building_id, self._next_shard_index)
        self._next_shard_index += 1
        self._shards[building_id] = shard
        return self.router.add_building(
            building_id, keys=sorted(self._profiles)
        )

    def drain_building(self, building_id: str) -> Dict[str, Tuple[str, str]]:
        """Take a building off the ring ahead of decommissioning.

        The shard stays live and addressable (migrations out of it still
        need to call it), but new principals no longer hash to it.
        Returns the migration delta for its displaced users.
        """
        self.shard(building_id)  # validate
        return self.router.begin_drain(
            building_id, keys=sorted(self._profiles)
        )

    def decommission_building(self, building_id: str) -> None:
        """Retire a drained, emptied building for good.

        Both its endpoints leave the bus with breaker eviction (the
        building is never coming back, so its breaker state is garbage,
        not health information), its storage closes, and the shard is
        dropped from the campus.
        """
        shard = self.shard(building_id)
        if building_id in self.router.building_ids():
            raise FederationError(
                "building %r is still on the ring; drain it first"
                % building_id
            )
        still_home = sorted(
            u for u, b in self.home_of.items() if b == building_id
        )
        if still_home:
            raise FederationError(
                "building %r still homes %d user(s); migrate them first"
                % (building_id, len(still_home))
            )
        for user_id in self.router.migrating_principals():
            migration = self.router.migration_of(user_id)
            if migration is not None and building_id in migration:
                raise FederationError(
                    "building %r has an in-flight migration for %r"
                    % (building_id, user_id)
                )
        self.bus.unregister(shard.endpoint, evict_breaker=True)
        self.bus.unregister(shard.registry_endpoint, evict_breaker=True)
        if shard.storage is not None and not shard.down:
            shard.storage.close()
        shard.tippers.engine.release_metrics()
        del self._shards[building_id]
        self.router.finish_drain(building_id)
        self.decommissioned.append(building_id)
        self.metrics.counter(
            "federation_buildings_decommissioned_total",
            {"building": building_id},
        ).inc()

    def complete_migration(
        self, user_id: str, from_building: str, to_building: str
    ) -> None:
        """Flip campus metadata after a migration's tombstone lands."""
        profile = self.profile_of(user_id)
        source = self.shard(from_building)
        source.residents = [
            p for p in source.residents if p.user_id != user_id
        ]
        dest = self.shard(to_building)
        if all(p.user_id != user_id for p in dest.residents):
            dest.residents.append(profile)
        self.home_of[user_id] = to_building

    # ------------------------------------------------------------------
    # Residents
    # ------------------------------------------------------------------
    def add_resident(self, building_id: str, profile: UserProfile) -> None:
        """Register ``profile`` at its ring-assigned home shard.

        The hash ring is authoritative: registering a principal at any
        building but their ring home is a configuration error, not a
        policy decision.
        """
        home = self.router.home_building(profile.user_id)
        if home != building_id:
            raise FederationError(
                "user %r hashes to %r, not %r"
                % (profile.user_id, home, building_id)
            )
        shard = self.shard(building_id)
        shard.tippers.add_user(profile)
        shard.residents.append(profile)
        self._profiles[profile.user_id] = profile
        self.home_of[profile.user_id] = building_id

    def profile_of(self, user_id: str) -> UserProfile:
        try:
            return self._profiles[user_id]
        except KeyError:
            raise FederationError("unknown campus user %r" % user_id) from None

    # ------------------------------------------------------------------
    # Presence ledger (the DSAR fan-out set)
    # ------------------------------------------------------------------
    def record_presence(self, user_id: str, building_id: str) -> None:
        """Note that ``building_id``'s sensors observed ``user_id``."""
        self.shard(building_id)  # validate
        self._presence.setdefault(user_id, set()).add(building_id)

    def buildings_observing(self, user_id: str) -> Tuple[str, ...]:
        """Every building that ever observed ``user_id``, sorted."""
        return tuple(sorted(self._presence.get(user_id, set())))

    # ------------------------------------------------------------------
    # Shard failure and recovery
    # ------------------------------------------------------------------
    def mark_down(self, building_id: str) -> None:
        """Take a crashed shard off the bus until it recovers.

        Calls routed to a dark building fail like any network failure;
        nothing queues on its behalf.
        """
        shard = self.shard(building_id)
        if shard.down:
            return
        shard.down = True
        self.bus.unregister(shard.endpoint)
        if shard.storage is not None:
            shard.storage.close()

    def recover_shard(self, building_id: str, now: float) -> "RecoveryReport":
        """Rebuild a crashed shard from its WAL and rejoin the campus.

        A fresh TIPPERS is constructed over the same storage directory;
        the user directory is re-seeded from campus metadata (residents
        as locals, every previously-observed visitor and every owner of
        a durable preference as a roaming registration, so every
        recovered preference replays and visited-shard decisions stay
        roaming-marked), then the WAL
        replays observations, audit, and preferences, and the shard
        re-registers on the bus.  The building's registry endpoint never
        left the bus -- advertisements are campus metadata, not WAL
        state.
        """
        shard = self.shard(building_id)
        if shard.storage is None:
            raise FederationError(
                "shard %r has no storage to recover from" % building_id
            )
        if not shard.down:
            self.mark_down(building_id)
        storage = self._shard_storage(building_id)
        assert storage is not None
        tippers = build_compact_tippers(
            shard.spatial,
            building_id,
            self._owner_name,
            metrics=self.metrics,
            storage=storage,
            health_supervisor=shard.supervisor,
        )
        for profile in shard.residents:
            tippers.add_user(profile)
        resident_ids = {profile.user_id for profile in shard.residents}
        for user_id in sorted(self._presence):
            if building_id not in self._presence[user_id]:
                continue
            if user_id in resident_ids or user_id not in self._profiles:
                continue
            tippers.register_roaming_user(
                self._profiles[user_id], self.home_of[user_id]
            )
        # A roamer's handoff registers them and pushes their preferences
        # whether or not a sensor here has observed them, so the WAL can
        # hold preferences of visitors the presence ledger never saw.
        from repro.storage import records
        from repro.storage.recovery import read_store

        owners = {
            data["user_id"]
            for record_type, data, _ in read_store(storage.directory)
            if record_type == records.PREF
        }
        for user_id in sorted(owners):
            if user_id in tippers.directory or user_id not in self._profiles:
                continue
            tippers.register_roaming_user(
                self._profiles[user_id], self.home_of[user_id]
            )
        for user_id in self.router.migrating_principals():
            migration = self.router.migration_of(user_id)
            if (
                migration is not None
                and migration[1] == building_id
                and user_id in self._profiles
                and user_id not in resident_ids
            ):
                # A destination shard that crashed mid-import holds the
                # migrating user's preferences in its WAL; registering
                # them as local (home == this building) lets replay
                # re-submit those preferences and clears any stale
                # roaming mark the presence loop above may have set.
                tippers.register_roaming_user(
                    self._profiles[user_id], building_id
                )
        report = tippers.recover(now)
        # The crashed instance's rows and records leave the summed
        # gauges; the recovered one has counted its own.
        shard.tippers.engine.release_metrics()
        shard.tippers = tippers
        shard.storage = storage
        shard.down = False
        self.bus.register(shard.endpoint, tippers)
        if self.bus.breakers is not None:
            # The operator knows the shard is back; don't make callers
            # wait out the breaker's rejection-counted cooldown.
            self.bus.breakers.reset(shard.endpoint)
        self.metrics.counter(
            "federation_shard_recoveries_total", {"building": building_id}
        ).inc()
        return report

    def close(self) -> None:
        """Close every live shard's storage engine."""
        for shard in self.shards():
            if shard.storage is not None and not shard.down:
                shard.storage.close()
