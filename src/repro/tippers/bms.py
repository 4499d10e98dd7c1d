"""The TIPPERS facade: one object wiring the whole building.

Construction order mirrors Figure 1: a spatial model and user directory
come first, the enforcement engine sits in the middle, and the five
managers (sensor, policy, preference, request, inference) share it.

TIPPERS is also a bus :class:`~repro.net.bus.Endpoint`, exposing the
JSON API the IoTA uses: fetching settings, submitting preferences and
selections, and (for services) the query methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.enforcement.audit import AuditLog
from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import GranularityLevel, Purpose
from repro.core.policy.base import RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import ServicePermission, UserPreference
from repro.core.policy.serialization import preference_from_dict
from repro.core.policy.settings import SettingsSpace
from repro.core.reasoner.conflicts import Conflict
from repro.core.reasoner.index import PolicyIndex, RuleStore
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.errors import NetworkError, PolicyError, ServiceError, StorageError
from repro.net.bus import Endpoint
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.sensors.base import Observation, Sensor
from repro.sensors.environment import EnvironmentView
from repro.sensors.ontology import SensorOntology, default_ontology
from repro.spatial.model import SpatialModel
from repro.tippers.datastore import Datastore
from repro.tippers.inference import InferenceEngine
from repro.tippers.policy_manager import PolicyManager
from repro.tippers.preference_manager import PreferenceManager
from repro.tippers.request_manager import QueryResponse, RequestManager
from repro.tippers.sensor_manager import (
    CaptureStats,
    SensorHealthSupervisor,
    SensorManager,
)
from repro.tippers.social import SocialInference
from repro.users.profile import UserDirectory, UserProfile

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.storage.durable import StorageEngine
    from repro.storage.recovery import RecoveryReport

#: What a payload's ``now`` may be: a JSON number (``true`` is not one;
#: :func:`_field` refuses a ``bool`` for every kind).
_NUMBER = (int, float)


def _snapshot_list(snapshot: Dict[str, Any], part: str) -> List[Any]:
    """``snapshot[part]`` (empty when absent); it must be a list."""
    items = snapshot.get(part, [])
    if not isinstance(items, list):
        raise ValueError(
            "snapshot %s has type %s" % (part, type(items).__name__)
        )
    return items


def _read_snapshot(
    snapshot: Dict[str, Any],
) -> Tuple[Optional[UserProfile], List[Observation], List[UserPreference]]:
    """The profile, observations and preferences of a migration snapshot.

    Raises :class:`ValueError` naming the first part of the wrong shape.
    """
    from repro.users.profile import profile_from_dict

    profile_data = snapshot.get("profile")
    try:
        profile = None if profile_data is None else profile_from_dict(profile_data)
        observations = [
            Observation.from_dict(data)
            for data in _snapshot_list(snapshot, "observations")
        ]
        preferences = [
            preference_from_dict(data)
            for data in _snapshot_list(snapshot, "preferences")
        ]
    except (PolicyError, StorageError) as exc:
        raise ValueError("malformed migration snapshot: %s" % exc) from None
    return profile, observations, preferences


def _enum_reader(enum_cls: Any) -> Callable[[Any], Any]:
    """A reader of ``enum_cls`` wire values: one dict probe per value.

    A value no member has (or one that cannot be hashed) goes to the
    enum constructor, which raises its usual :class:`ValueError`.
    """
    members = {member.value: member for member in enum_cls}

    def read(value: Any) -> Any:
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum_cls(value)

    return read


_requester_kind = _enum_reader(RequesterKind)
_purpose = _enum_reader(Purpose)
_granularity = _enum_reader(GranularityLevel)


def _field(payload: Dict[str, Any], name: str, kind: Any) -> Any:
    """``payload[name]``; a :class:`ValueError` if it is not a ``kind``.

    A payload of the wrong shape is then refused like a missing field,
    as an ``RpcError``, before anything is logged or stored.  A ``bool``
    is refused too, though Python counts it an ``int``: no field is a
    flag.
    """
    value = payload[name]
    if not isinstance(value, kind) or type(value) is bool:
        raise ValueError(
            "payload field %r has type %s" % (name, type(value).__name__)
        )
    return value


def _optional_field(
    payload: Dict[str, Any], name: str, kind: Any, default: Any
) -> Any:
    """``payload[name]`` checked like :func:`_field`, or ``default``
    when the payload has no such field."""
    return _field(payload, name, kind) if name in payload else default


class TIPPERS(Endpoint):
    """The privacy-aware building management system."""

    def __init__(
        self,
        spatial: SpatialModel,
        building_id: str,
        directory: Optional[UserDirectory] = None,
        ontology: Optional[SensorOntology] = None,
        store: Optional[RuleStore] = None,
        strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
        owner_name: str = "",
        owner_more_info: str = "",
        settings_space: Optional[SettingsSpace] = None,
        enforce_capture: bool = True,
        compile_decisions: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        storage: Optional["StorageEngine"] = None,
        health_supervisor: Optional[SensorHealthSupervisor] = None,
    ) -> None:
        if building_id not in spatial:
            raise PolicyError("unknown building %r" % building_id)
        self.spatial = spatial
        self.building_id = building_id
        self.metrics = metrics if metrics is not None else get_registry()
        self.directory = directory if directory is not None else UserDirectory()
        self.ontology = ontology if ontology is not None else default_ontology()
        self.context = EvaluationContext(
            spatial=spatial, user_profiles=self.directory.group_map()
        )
        self.store: RuleStore = store if store is not None else PolicyIndex()
        #: When set, observations, audit records, and preferences are
        #: write-ahead-logged and survive a crash (see repro.storage).
        self.storage = storage
        audit: Optional[AuditLog] = None
        if storage is not None:
            from repro.storage.durable import DurableAuditLog, DurableDatastore

            audit = DurableAuditLog(storage, metrics=self.metrics)
            self.datastore: Datastore = DurableDatastore(storage)
        else:
            self.datastore = Datastore()
        # compile_decisions=False selects the reference interpreter.
        engine_cls = CompiledEnforcementEngine if compile_decisions else EnforcementEngine
        self.engine = engine_cls(
            store=self.store,
            context=self.context,
            strategy=strategy,
            ontology=self.ontology,
            audit=audit,
            metrics=self.metrics,
        )
        self.sensor_manager = SensorManager(
            self.engine,
            self.datastore,
            directory=self.directory,
            enforce_capture=enforce_capture,
            metrics=self.metrics,
            supervisor=health_supervisor,
        )
        self.policy_manager = PolicyManager(
            self.store,
            spatial,
            self.ontology,
            building_id,
            owner_name=owner_name,
            owner_more_info=owner_more_info,
            settings_space=settings_space,
        )
        self.preference_manager = PreferenceManager(
            self.store,
            self.policy_manager,
            self.directory,
            self.context,
            on_submit=None if storage is None else storage.log_preference,
            on_withdraw_all=None if storage is None else storage.log_withdraw_all,
        )
        self.inference = InferenceEngine(
            self.datastore, spatial, self.policy_manager.retention_by_sensor_type
        )
        self.social = SocialInference(self.datastore)
        #: user_id -> home building, for principals whose home shard is
        #: another building (federation roaming).  Decisions about them
        #: carry a ``roaming:<home>`` marker in reasons and audit.
        self._roaming: Dict[str, str] = {}
        #: migration_id -> latest journaled phase record, populated by
        #: :meth:`recover` from the WAL's migration journal.  A
        #: rebalance coordinator reads this to resume migrations that
        #: were in flight when the shard crashed.
        self.recovered_migrations: Dict[str, Dict[str, Any]] = {}
        self.request_manager = RequestManager(
            self.engine,
            self.inference,
            self.directory,
            spatial,
            self.policy_manager,
            social=self.social,
            metrics=self.metrics,
            roaming_lookup=self._roaming.get,
        )

    # ------------------------------------------------------------------
    # Administration (step 1)
    # ------------------------------------------------------------------
    def define_policy(self, policy: BuildingPolicy) -> BuildingPolicy:
        return self.policy_manager.define(policy)

    def add_user(self, profile: UserProfile) -> UserProfile:
        result = self.directory.add(profile)
        # Conditions consult the context's profile map; add this user.
        self.context.user_profiles[result.user_id] = result.groups
        # Profile groups feed ProfileCondition, which is declared
        # time-insensitive and hence compiled into table rows; rows
        # predating this profile change must not survive it.
        invalidate = getattr(self.engine, "invalidate_all", None)
        if invalidate is not None:
            invalidate()
        return result

    def register_roaming_user(
        self, profile: UserProfile, home_building_id: str
    ) -> bool:
        """Admit a visiting principal whose home shard is another building.

        Idempotent: re-registering an already-known visitor only
        refreshes the home mapping (an IoTA re-entering mid-handoff must
        not trip the directory's duplicate guard).  Registering a
        principal whose home *is* this building clears any stale roaming
        mark instead -- their decisions are local again.  Returns whether
        the profile was newly added to the directory.
        """
        added = False
        if profile.user_id not in self.directory:
            self.add_user(profile)
            added = True
        if home_building_id == self.building_id:
            self._roaming.pop(profile.user_id, None)
        else:
            self._roaming[profile.user_id] = home_building_id
        self.metrics.counter(
            "tippers_roaming_registrations_total",
            {"building": self.building_id},
        ).inc()
        return added

    def roaming_home_of(self, user_id: str) -> Optional[str]:
        """The visitor's home building, or None for locals."""
        return self._roaming.get(user_id)

    def remove_user(self, user_id: str) -> bool:
        """Forget a user entirely (migration tombstone); idempotent.

        Mirrors :meth:`add_user`: the context's profile map is
        refreshed and compiled decision rows predating the directory
        change are dropped.  Returns whether the user was present.
        """
        removed = self.directory.remove(user_id) is not None
        self._roaming.pop(user_id, None)
        if removed:
            del self.context.user_profiles[user_id]
            invalidate = getattr(self.engine, "invalidate_all", None)
            if invalidate is not None:
                invalidate()
        return removed

    # ------------------------------------------------------------------
    # Cross-shard migration (federation rebalancing)
    # ------------------------------------------------------------------
    def _journal_migration(self, data: Dict[str, Any]) -> None:
        if self.storage is not None:
            self.storage.log_migration(data)

    def migrate_export(
        self, migration_id: str, user_id: str, to_building: str
    ) -> Dict[str, Any]:
        """Freeze+copy, source side: snapshot the user's state.

        The snapshot (profile, preferences, datastore rows) is
        journaled as a ``migration`` WAL record *before* it is returned,
        and the user's compiled decision rows are evicted -- the source
        stops serving precompiled decisions for a principal whose
        preferences may change at the destination mid-flight.  A user
        already tombstoned here (finalize retried after a crash) exports
        ``found=False`` so the coordinator can converge idempotently.
        """
        from repro.core.policy.serialization import preference_to_dict
        from repro.users.profile import profile_to_dict

        if user_id not in self.directory:
            return {"migration_id": migration_id, "user_id": user_id,
                    "found": False}
        evict = getattr(self.engine, "invalidate_user", None)
        table_evicted = False
        if evict is not None:
            evict(user_id)
            table_evicted = True
        snapshot = {
            "profile": profile_to_dict(self.directory.get(user_id)),
            "preferences": [
                preference_to_dict(p)
                for p in self.preference_manager.preferences_of(user_id)
            ],
            "observations": [
                o.to_dict() for o in self.datastore.query(subject_id=user_id)
            ],
            "table_evicted": table_evicted,
        }
        self._journal_migration({
            "migration_id": migration_id,
            "user_id": user_id,
            "from": self.building_id,
            "to": to_building,
            "phase": "copy",
            "role": "source",
            "snapshot": snapshot,
        })
        self.metrics.counter(
            "tippers_migration_steps_total", {"phase": "export"}
        ).inc()
        return {
            "migration_id": migration_id,
            "user_id": user_id,
            "found": True,
            "snapshot": snapshot,
        }

    def migrate_import(
        self,
        migration_id: str,
        user_id: str,
        from_building: str,
        snapshot: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Freeze+copy then commit, destination side.  Idempotent.

        The snapshot is journaled on *this* shard's WAL before anything
        is applied (the tentpole's records-on-both-shards rule), so a
        crash mid-apply leaves a resumable journal.  The apply itself is
        idempotent: observations are matched by id, preferences are
        latest-wins, the profile add is skipped when present -- a
        re-driven import after a crash changes nothing it already did.

        The whole snapshot is read before the journal write: a profile,
        observation or preference of the wrong shape raises
        :class:`ValueError` with nothing logged or applied.
        """
        profile, observations, preferences = _read_snapshot(snapshot)
        self._journal_migration({
            "migration_id": migration_id,
            "user_id": user_id,
            "from": from_building,
            "to": self.building_id,
            "phase": "copy",
            "role": "dest",
            "snapshot": snapshot,
        })
        if profile is not None and user_id not in self.directory:
            self.add_user(profile)
        # This shard is the user's home now; drop any stale visitor mark.
        self._roaming.pop(user_id, None)
        existing = {
            o.observation_id for o in self.datastore.query(subject_id=user_id)
        }
        observations_imported = 0
        for observation in observations:
            if observation.observation_id in existing:
                continue
            self.datastore.insert(observation)
            observations_imported += 1
        for preference in preferences:
            self.preference_manager.submit(preference)
        self._journal_migration({
            "migration_id": migration_id,
            "user_id": user_id,
            "from": from_building,
            "to": self.building_id,
            "phase": "committed",
            "role": "dest",
        })
        self.metrics.counter(
            "tippers_migration_steps_total", {"phase": "import"}
        ).inc()
        return {
            "migration_id": migration_id,
            "user_id": user_id,
            "imported": True,
            "observations_imported": observations_imported,
            "preferences_imported": len(preferences),
            "observations_held": len(self.datastore.query(subject_id=user_id)),
        }

    def migrate_finalize(
        self, migration_id: str, user_id: str, to_building: str
    ) -> Dict[str, Any]:
        """Tombstone, source side -- only after destination ack.

        Idempotent: every sub-step tolerates being re-run (erasing zero
        rows, withdrawing zero preferences, removing a missing user).
        The tombstone is journaled so replay knows the migration left
        this shard for good.
        """
        observations_dropped = self.datastore.forget_subject(user_id)
        preferences_withdrawn = self.preference_manager.withdraw_all(user_id)
        removed = self.remove_user(user_id)
        self._journal_migration({
            "migration_id": migration_id,
            "user_id": user_id,
            "from": self.building_id,
            "to": to_building,
            "phase": "tombstone",
            "role": "source",
        })
        self.metrics.counter(
            "tippers_migration_steps_total", {"phase": "finalize"}
        ).inc()
        return {
            "migration_id": migration_id,
            "user_id": user_id,
            "observations_dropped": observations_dropped,
            "preferences_withdrawn": preferences_withdrawn,
            "removed": removed,
        }

    def deploy_sensor(
        self,
        sensor_type: str,
        sensor_id: str,
        space_id: str,
        settings: Optional[Dict[str, object]] = None,
    ) -> Sensor:
        if space_id not in self.spatial:
            raise PolicyError("unknown space %r" % space_id)
        return self.sensor_manager.deploy(sensor_type, sensor_id, space_id, settings)

    # ------------------------------------------------------------------
    # Operation (steps 2-3)
    # ------------------------------------------------------------------
    def tick(self, now: float, environment: EnvironmentView) -> CaptureStats:
        """One capture cycle over every deployed sensor.

        With storage, the tick is one WAL commit: its records are
        staged and written together before it returns, or raises.
        """
        if self.storage is None:
            return self.sensor_manager.tick(now, environment)
        with self.storage.batch():
            return self.sensor_manager.tick(now, environment)

    def run_retention(self, now: float) -> int:
        """Purge observations past their policies' retention."""
        return self.datastore.sweep(
            now, self.policy_manager.retention_by_sensor_type()
        )

    def recover(self, now: float) -> "RecoveryReport":
        """Rebuild state from this TIPPERS' storage directory.

        Must run on a freshly constructed, storage-backed instance
        (policies and users re-defined, no observations captured yet):
        the replay loads observations into the live durable datastore,
        counts the audit records the log already holds, and re-submits
        recovered preferences, then sweeps
        retention for anything that expired while the process was down.
        """
        if self.storage is None:
            raise PolicyError("recover() needs a storage-backed TIPPERS")
        if self.datastore.count() or len(self.engine.audit):
            raise PolicyError("recover() must run before any capture")
        from repro.storage.recovery import recover as recover_storage

        self.storage.replaying = True
        try:
            state = recover_storage(
                self.storage.directory,
                into_datastore=self.datastore,
                into_audit=self.engine.audit,
                retention_by_type=self.policy_manager.retention_by_sensor_type(),
                now=now,
            )
            # Preferences flow back through the manager so the rule
            # store and conflict detection see them; ``replaying``
            # keeps the round trip from re-logging.
            for data in state.preferences:
                self.preference_manager.submit(preference_from_dict(data))
            self.recovered_migrations = dict(state.migrations)
        finally:
            self.storage.replaying = False
        return state.report

    def run_comfort_control(self, now: float) -> int:
        """Execute actuation rules (Policy 1's pipeline)."""
        return self.policy_manager.run_actuations(
            self.sensor_manager,
            triggers={"occupied": lambda space_id: self.inference.is_occupied(space_id, now)},
        )

    # ------------------------------------------------------------------
    # Preferences (step 8)
    # ------------------------------------------------------------------
    def submit_preference(self, preference: UserPreference) -> List[Conflict]:
        return self.preference_manager.submit(preference)

    def submit_permission(self, permission: ServicePermission) -> List[Conflict]:
        return self.preference_manager.submit_permission(permission)

    def apply_selection(self, user_id: str, selection: Dict[str, str]) -> List[Conflict]:
        return self.preference_manager.apply_selection(user_id, selection)

    # ------------------------------------------------------------------
    # Queries (steps 9-10); thin delegation to the request manager
    # ------------------------------------------------------------------
    def locate_user(self, requester_id: str, requester_kind: RequesterKind,
                    subject_id: str, now: float, **kwargs: object) -> QueryResponse:
        return self.request_manager.locate_user(
            requester_id, requester_kind, subject_id, now, **kwargs  # type: ignore[arg-type]
        )

    def room_occupancy(self, requester_id: str, requester_kind: RequesterKind,
                       space_id: str, now: float, **kwargs: object) -> QueryResponse:
        return self.request_manager.room_occupancy(
            requester_id, requester_kind, space_id, now, **kwargs  # type: ignore[arg-type]
        )

    @property
    def audit(self) -> AuditLog:
        return self.engine.audit

    # ------------------------------------------------------------------
    # Bus endpoint: the JSON API
    # ------------------------------------------------------------------
    def handle(self, method: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        route = _ROUTES.get(method)
        if route is None:
            raise NetworkError("method %r not handled" % method)
        try:
            # Looked up by name on every call, so a wrapper installed on
            # the class after this instance was built still runs.
            return getattr(self, route)(payload)
        except (PolicyError, ServiceError, KeyError, ValueError) as exc:
            raise NetworkError(str(exc)) from None

    def _rpc_get_policy_document(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.policy_manager.compile_policy_document().to_dict()

    def _rpc_get_settings_document(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.policy_manager.settings_space.to_document().to_dict()

    def _rpc_submit_preference(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        preference = preference_from_dict(payload["preference"])
        conflicts = self.submit_preference(preference)
        return {"conflicts": [c.describe() for c in conflicts]}

    def _rpc_submit_selection(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        conflicts = self.apply_selection(
            _field(payload, "user_id", str), _field(payload, "selection", dict)
        )
        return {"conflicts": [c.describe() for c in conflicts]}

    def _rpc_preview_effects(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.tippers.preview import preview_effects

        user_id = _field(payload, "user_id", str)
        if user_id not in self.directory:
            raise NetworkError("unknown user %r" % user_id)
        preview = preview_effects(
            self.engine,
            user_id,
            _optional_field(payload, "space_id", str, self.building_id),
            _field(payload, "now", _NUMBER),
        )
        return {
            "user_id": preview.user_id,
            "entries": [
                {
                    "category": e.category.value,
                    "phase": e.phase.value,
                    "effect": e.effect.value,
                    "granularity": e.granularity.value,
                    "overridden": e.overridden,
                }
                for e in preview.entries
            ],
        }

    def _rpc_dsar_report(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.tippers.dsar import subject_access_report

        report = subject_access_report(
            self,
            _field(payload, "user_id", str),
            _field(payload, "now", _NUMBER),
        )
        return {
            "user_id": report.user_id,
            "observations_total": report.observations_total,
            "decisions_total": report.decisions_total,
            "lines": report.summary_lines(),
        }

    def _rpc_dsar_erase(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.tippers.dsar import erase_subject

        receipt = erase_subject(
            self,
            _field(payload, "user_id", str),
            _field(payload, "now", _NUMBER),
            withdraw_preferences=bool(payload.get("withdraw_preferences", False)),
            compact_storage=bool(payload.get("compact_storage", False)),
        )
        return {
            "user_id": receipt.user_id,
            "erased_observations": receipt.erased_observations,
            "withdrawn_preferences": receipt.withdrawn_preferences,
            "storage_compacted": receipt.storage_compacted,
        }

    def _rpc_register_roaming(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.users.profile import profile_from_dict

        profile = profile_from_dict(_field(payload, "profile", dict))
        added = self.register_roaming_user(
            profile, _field(payload, "home_building_id", str)
        )
        return {
            "user_id": profile.user_id,
            "added": added,
            "roaming": self.roaming_home_of(profile.user_id) is not None,
        }

    def _rpc_migrate_export(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.migrate_export(
            _field(payload, "migration_id", str),
            _field(payload, "user_id", str),
            _field(payload, "to_building", str),
        )

    def _rpc_migrate_import(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.migrate_import(
            _field(payload, "migration_id", str),
            _field(payload, "user_id", str),
            _field(payload, "from_building", str),
            _field(payload, "snapshot", dict),
        )

    def _rpc_migrate_finalize(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.migrate_finalize(
            _field(payload, "migration_id", str),
            _field(payload, "user_id", str),
            _field(payload, "to_building", str),
        )

    def _rpc_locate_user(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        marker = payload.get("migration_marker")
        response = self.locate_user(
            _field(payload, "requester_id", str),
            _requester_kind(payload.get("requester_kind", "building_service")),
            _field(payload, "subject_id", str),
            _field(payload, "now", _NUMBER),
            purpose=_purpose(payload.get("purpose", "providing_service")),
            granularity=_granularity(payload.get("granularity", "precise")),
            brownout_level=_optional_field(payload, "brownout_level", int, 0),
            extra_notes=(str(marker),) if marker else (),
        )
        value = response.value
        located: Optional[Dict[str, Any]] = None
        if response.allowed and value is not None:
            located = {
                "space_id": value.space_id,
                "timestamp": value.timestamp,
                "granularity": value.granularity,
            }
        return {
            "allowed": response.allowed,
            "location": located,
            "reasons": list(response.reasons),
        }

    def _rpc_room_occupancy(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        marker = payload.get("migration_marker")
        response = self.room_occupancy(
            _field(payload, "requester_id", str),
            _requester_kind(payload.get("requester_kind", "building_service")),
            _field(payload, "space_id", str),
            _field(payload, "now", _NUMBER),
            purpose=_purpose(payload.get("purpose", "providing_service")),
            extra_notes=(str(marker),) if marker else (),
        )
        return {
            "allowed": response.allowed,
            "occupied": response.value if response.allowed else None,
            "reasons": list(response.reasons),
        }


#: Every bus method TIPPERS answers, and the name of the method that
#: answers it.
_ROUTES: Dict[str, str] = {
    method: "_rpc_" + method
    for method in (
        "get_policy_document",
        "get_settings_document",
        "submit_preference",
        "submit_selection",
        "preview_effects",
        "dsar_report",
        "dsar_erase",
        "register_roaming",
        "migrate_export",
        "migrate_import",
        "migrate_finalize",
        "locate_user",
        "room_occupancy",
    )
}
