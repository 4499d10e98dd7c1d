"""The building policy manager.

Step (1) of Figure 1: "The building admin ... uses the smart building
management system (such as TIPPERS) to define policies regarding the
collection and management of data within the building."  The manager
validates and stores policies, feeds them to the enforcement engine,
compiles the machine-readable documents the IRR advertises (step 4),
derives retention schedules, executes actuation rules against the
sensor fleet, and keeps event rosters for disclosure policies like
Policy 4.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.core.language.document import (
    ObservationDescription,
    ResourceDescription,
    ResourcePolicyDocument,
)
from repro.core.language.vocabulary import PURPOSE_TAXONOMY, Purpose
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.settings import SettingsSpace, location_settings_space
from repro.core.reasoner.index import RuleStore
from repro.errors import PolicyError
from repro.sensors.ontology import SensorOntology
from repro.spatial.model import SpatialModel
from repro.tippers.sensor_manager import SensorManager


class PolicyManager:
    """Holds building policies and compiles their artifacts."""

    def __init__(
        self,
        store: RuleStore,
        spatial: SpatialModel,
        ontology: SensorOntology,
        building_id: str,
        owner_name: str = "",
        owner_more_info: str = "",
        settings_space: Optional[SettingsSpace] = None,
    ) -> None:
        self._store = store
        self._spatial = spatial
        self._ontology = ontology
        self.building_id = building_id
        self.owner_name = owner_name
        self.owner_more_info = owner_more_info
        self._policies: Dict[str, BuildingPolicy] = {}
        #: The retention schedule of the current policy set, computed on
        #: first use after a policy is defined or retired.
        self._retention: Optional[Dict[str, float]] = None
        self._events: Dict[str, Set[str]] = {}
        self._event_spaces: Dict[str, str] = {}
        self.settings_space = (
            settings_space if settings_space is not None else location_settings_space()
        )

    # ------------------------------------------------------------------
    # Policy lifecycle
    # ------------------------------------------------------------------
    def define(self, policy: BuildingPolicy) -> BuildingPolicy:
        """Validate and activate a building policy."""
        if policy.policy_id in self._policies:
            raise PolicyError("policy %r already defined" % policy.policy_id)
        for space_id in policy.space_ids:
            if space_id not in self._spatial:
                raise PolicyError(
                    "policy %r references unknown space %r"
                    % (policy.policy_id, space_id)
                )
        for sensor_type in policy.sensor_types:
            if sensor_type not in self._ontology:
                raise PolicyError(
                    "policy %r references unknown sensor type %r"
                    % (policy.policy_id, sensor_type)
                )
        self._policies[policy.policy_id] = policy
        self._retention = None
        self._store.add_policy(policy)
        return policy

    def retire(self, policy_id: str) -> None:
        if policy_id not in self._policies:
            raise PolicyError("unknown policy %r" % policy_id)
        del self._policies[policy_id]
        self._retention = None
        self._store.remove_policy(policy_id)

    def get(self, policy_id: str) -> BuildingPolicy:
        try:
            return self._policies[policy_id]
        except KeyError:
            raise PolicyError("unknown policy %r" % policy_id) from None

    def policies(self) -> List[BuildingPolicy]:
        return sorted(self._policies.values(), key=lambda p: p.policy_id)

    def __len__(self) -> int:
        return len(self._policies)

    # ------------------------------------------------------------------
    # Retention schedule
    # ------------------------------------------------------------------
    def retention_by_sensor_type(self) -> Dict[str, float]:
        """Sensor type -> retention seconds (strictest across policies).

        The schedule is shared until the policy set changes: callers
        must not mutate it.
        """
        if self._retention is not None:
            return self._retention
        schedule: Dict[str, float] = {}
        for policy in self._policies.values():
            seconds = policy.retention_seconds()
            if seconds is None:
                continue
            for sensor_type in policy.sensor_types:
                current = schedule.get(sensor_type)
                if current is None or seconds < current:
                    schedule[sensor_type] = float(seconds)
        self._retention = schedule
        return schedule

    # ------------------------------------------------------------------
    # IRR document compilation (step 4 of Figure 1)
    # ------------------------------------------------------------------
    def compile_policy_document(self) -> ResourcePolicyDocument:
        """The machine-readable document advertising every data policy.

        One resource entry per (policy, sensor type) pair that collects
        data; policies without sensor types (pure sharing rules) compile
        to a sensor-less "service" entry keyed on the policy itself.
        """
        resources: List[ResourceDescription] = []
        for policy in self.policies():
            purposes = {
                purpose.value: PURPOSE_TAXONOMY[purpose].description
                for purpose in policy.purposes
            } or {"logging": PURPOSE_TAXONOMY[Purpose.LOGGING].description}
            observations = tuple(
                ObservationDescription(
                    name=category.value,
                    description="%s data (%s granularity)"
                    % (category.value, policy.granularity.value),
                    granularity=policy.granularity,
                )
                for category in policy.categories
            ) or (
                ObservationDescription(
                    name="unspecified", description=policy.description
                ),
            )
            sensor_types = policy.sensor_types or ("",)
            for sensor_type in sensor_types:
                description = (
                    self._ontology.get(sensor_type).description
                    if sensor_type and sensor_type in self._ontology
                    else policy.description
                )
                resources.append(
                    ResourceDescription(
                        name=policy.name,
                        resource_id=policy.policy_id,
                        spatial_name=self._spatial.get(self.building_id).name,
                        spatial_type="Building",
                        owner_name=self.owner_name,
                        owner_more_info=self.owner_more_info,
                        sensor_type=sensor_type or "none",
                        sensor_description=description,
                        purposes=purposes,
                        observations=observations,
                        retention=policy.retention,
                    )
                )
        if not resources:
            raise PolicyError("no policies defined; nothing to advertise")
        return ResourcePolicyDocument(resources)

    # ------------------------------------------------------------------
    # Actuation (Policy 1's pipeline)
    # ------------------------------------------------------------------
    def run_actuations(
        self,
        sensor_manager: SensorManager,
        triggers: Dict[str, Callable[[str], bool]],
    ) -> int:
        """Execute every policy's actuation rules.

        ``triggers`` maps trigger names (e.g. ``"occupied"``) to
        predicates over space ids; the ``"always"`` trigger is built in.
        Returns the number of sensors actuated.

        For Policy 1 this walks exactly the paper's pipeline: determine
        per-room occupancy (the trigger predicate queries motion-sensor
        data), then change HVAC settings in the rooms where it holds.
        """
        actuated = 0
        for policy in self.policies():
            if not policy.actuations:
                continue
            spaces = policy.space_ids or (self.building_id,)
            for rule in policy.actuations:
                for space_id in spaces:
                    if rule.trigger != "always":
                        predicate = triggers.get(rule.trigger)
                        if predicate is None:
                            raise PolicyError(
                                "no trigger %r for policy %r"
                                % (rule.trigger, policy.policy_id)
                            )
                        if not predicate(space_id):
                            continue
                    targets = self._sensors_under(sensor_manager, space_id, rule.sensor_type)
                    for sensor in targets:
                        sensor.actuate(dict(rule.settings))
                        actuated += 1
        return actuated

    def _sensors_under(
        self, sensor_manager: SensorManager, space_id: str, sensor_type: str
    ):
        """Sensors of ``sensor_type`` in ``space_id`` or any space under it."""
        direct = sensor_manager.sensors_in_space(space_id, sensor_type)
        if direct or space_id not in self._spatial:
            return direct
        result = []
        for descendant in self._spatial.descendants(space_id):
            result.extend(
                sensor_manager.sensors_in_space(descendant.space_id, sensor_type)
            )
        return result

    # ------------------------------------------------------------------
    # Event rosters (Policy 4)
    # ------------------------------------------------------------------
    def register_event(self, event_id: str, space_id: str) -> None:
        if space_id not in self._spatial:
            raise PolicyError("unknown event space %r" % space_id)
        self._events[event_id] = set()
        self._event_spaces[event_id] = space_id

    def register_participant(self, event_id: str, user_id: str) -> None:
        if event_id not in self._events:
            raise PolicyError("unknown event %r" % event_id)
        self._events[event_id].add(user_id)

    def event_roster(self, event_id: str) -> Set[str]:
        if event_id not in self._events:
            raise PolicyError("unknown event %r" % event_id)
        return set(self._events[event_id])

    def event_space(self, event_id: str) -> str:
        if event_id not in self._event_spaces:
            raise PolicyError("unknown event %r" % event_id)
        return self._event_spaces[event_id]
