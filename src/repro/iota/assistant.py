"""The IoT Assistant.

Steps (5)-(8) of Figure 1: the assistant discovers registries near its
user, fetches machine-readable policies, surfaces the relevant ones as
notifications, configures available privacy settings from its learned
preference model, and submits the result to TIPPERS -- receiving back
any conflicts the building detected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.language.document import (
    ResourceDescription,
    ResourcePolicyDocument,
    ServicePolicyDocument,
    SettingsDocument,
)
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.preference import UserPreference
from repro.core.policy.serialization import preference_to_dict
from repro.core.policy.settings import SettingsSpace
from repro.errors import NetworkError, SchemaError
from repro.iota.notifications import Notification, NotificationManager
from repro.iota.preference_model import DataPractice, LabeledDecision, PreferenceModel
from repro.net.bus import MessageBus, RpcError
from repro.net.resilience import Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry, get_registry

#: Simulated-time budget for a bus call when the assistant's owner did
#: not configure ``call_deadline_s``.  Generous on purpose: it exists
#: so no assistant call can retry unbounded (lint rule C007), not to
#: shape normal traffic.
_DEFAULT_CALL_DEADLINE_S = 30.0

#: The retries of an assistant whose owner configured no
#: ``retry_policy``: two immediate re-sends, no backoff.
FALLBACK_RETRY_POLICY = RetryPolicy(max_retries=2, base_delay_s=0.0, jitter=0.0)

#: Normalization of sensor-type spellings found in documents to the
#: primary data category their observations yield.
_SENSOR_TYPE_CATEGORY: Dict[str, DataCategory] = {
    "wifi_access_point": DataCategory.LOCATION,
    "bluetooth_beacon": DataCategory.LOCATION,
    "camera": DataCategory.PRESENCE,
    "power_meter": DataCategory.ENERGY_USE,
    "temperature_sensor": DataCategory.TEMPERATURE,
    "motion_sensor": DataCategory.OCCUPANCY,
    "hvac_unit": DataCategory.TEMPERATURE,
    "id_card_reader": DataCategory.IDENTITY,
}


def _normalize(name: str) -> str:
    return name.strip().lower().replace(" ", "_").replace("-", "_")


def _category_for(observation_name: str, inferred: Tuple[str, ...], sensor_type: str) -> DataCategory:
    """Best-effort mapping of an advertised observation to a category.

    Priority: an explicit ``inferred`` entry naming a category, then the
    observation name itself (TIPPERS compiles observation names from
    category values), then the sensor type's primary category, then
    ACTIVITY as the conservative catch-all.
    """
    for hint in inferred:
        try:
            return DataCategory(_normalize(hint))
        except ValueError:
            continue
    try:
        return DataCategory(_normalize(observation_name))
    except ValueError:
        pass
    return _SENSOR_TYPE_CATEGORY.get(_normalize(sensor_type), DataCategory.ACTIVITY)


def practices_from_resource(resource: ResourceDescription) -> List[DataPractice]:
    """The data practices a resource advertisement describes."""
    purposes = resource.named_purposes() or [Purpose.LOGGING]
    retention_days = (
        resource.retention.total_seconds() / 86400.0
        if resource.retention is not None
        else 30.0
    )
    practices = []
    for observation in resource.observations:
        category = _category_for(
            observation.name, observation.inferred, resource.sensor_type
        )
        granularity = observation.granularity or GranularityLevel.PRECISE
        for purpose in purposes:
            practices.append(
                DataPractice(
                    category=category,
                    purpose=purpose,
                    granularity=granularity,
                    retention_days=retention_days,
                    third_party=False,
                )
            )
    return practices


def practices_from_service(document: ServicePolicyDocument) -> List[DataPractice]:
    """The data practices a service advertisement describes."""
    purposes = document.named_purposes() or [Purpose.PROVIDING_SERVICE]
    practices = []
    for observation in document.observations:
        category = _category_for(observation.name, observation.inferred, "")
        granularity = observation.granularity or GranularityLevel.PRECISE
        for purpose in purposes:
            practices.append(
                DataPractice(
                    category=category,
                    purpose=purpose,
                    granularity=granularity,
                    third_party=document.third_party,
                )
            )
    return practices


@dataclass
class RoamResult:
    """What one roaming handoff accomplished."""

    tippers_endpoint: str
    registry_endpoint: str
    home_building_id: str
    re_entry: bool
    newly_added: bool
    preferences_pushed: int
    preferences_pending: int
    notifications: int


@dataclass
class DiscoveryResult:
    """What one discovery sweep found."""

    registry_ids: List[str] = field(default_factory=list)
    resources: List[ResourceDescription] = field(default_factory=list)
    services: List[ServicePolicyDocument] = field(default_factory=list)
    settings: List[SettingsDocument] = field(default_factory=list)
    notifications: List[Notification] = field(default_factory=list)


class IoTAssistant:
    """A personal privacy assistant for one user."""

    def __init__(
        self,
        user_id: str,
        bus: MessageBus,
        model: Optional[PreferenceModel] = None,
        notifications: Optional[NotificationManager] = None,
        tippers_endpoint: str = "tippers",
        registry_endpoints: Optional[List[str]] = None,
        notification_threshold: float = 0.4,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        call_deadline_s: Optional[float] = None,
    ) -> None:
        self.user_id = user_id
        self.bus = bus
        self.metrics = metrics if metrics is not None else get_registry()
        self.retry_policy = (
            retry_policy if retry_policy is not None else FALLBACK_RETRY_POLICY
        )
        self.call_deadline_s = call_deadline_s
        self.model = model if model is not None else PreferenceModel()
        self.notifications = (
            notifications
            if notifications is not None
            else NotificationManager(self.model, relevance_threshold=notification_threshold)
        )
        self.tippers_endpoint = tippers_endpoint
        self.registry_endpoints = list(registry_endpoints or [])
        self.reported_conflicts: List[str] = []
        self.last_discovery: Optional[DiscoveryResult] = None
        #: Every preference this assistant ever got accepted, in
        #: submission order -- the working set a roaming handoff
        #: re-pushes to a visited building's shard.
        self._submitted_preferences: List[Tuple[str, UserPreference]] = []
        #: endpoint -> canonical keys of preferences that endpoint has
        #: acknowledged; lets a handoff resume after a partial re-push.
        self._pushed_keys: Dict[str, Set[str]] = {}
        self._visited_endpoints: Set[str] = set()

    def _call(self, target: str, method: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One bus call under the assistant's resilience settings.

        Retries follow the configured
        :class:`~repro.net.resilience.RetryPolicy`, or
        :data:`FALLBACK_RETRY_POLICY` when none was given.  Every
        logical call opens a fresh
        :class:`~repro.net.resilience.Deadline` -- ``call_deadline_s``
        when configured, a generous default otherwise -- so no call can
        retry unbounded (lint rule C007).
        """
        deadline = Deadline(
            self.call_deadline_s
            if self.call_deadline_s is not None
            else _DEFAULT_CALL_DEADLINE_S
        )
        return self.bus.call(
            target,
            method,
            payload,
            retry_policy=self.retry_policy,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Step 5: discovery
    # ------------------------------------------------------------------
    def discover(self, space_id: str, now: float) -> DiscoveryResult:
        """Query every known registry for policies near ``space_id``.

        Registries that are unreachable or do not cover the space are
        skipped.  Relevant practices are offered to the notification
        manager (step 6).
        """
        result = DiscoveryResult()
        self.metrics.counter("iota_discovery_rounds_total").inc()
        # Trace on the bus's tracer so the sweep's bus.call spans nest
        # under the discovery span.
        with self.bus.tracer.span(
            "iota.discover", user=self.user_id, space=space_id
        ):
            for endpoint in self.registry_endpoints:
                try:
                    response = self._call(
                        endpoint, "discover", {"space_id": space_id}
                    )
                except (RpcError, NetworkError):
                    self.metrics.counter(
                        "iota_registries_unreachable_total"
                    ).inc()
                    continue
                self.metrics.counter("iota_registries_reached_total").inc()
                result.registry_ids.append(response.get("registry_id", endpoint))
                for entry in response.get("advertisements", []):
                    self._absorb_advertisement(entry, now, result)
        self.metrics.counter("iota_notifications_total").inc(
            len(result.notifications)
        )
        self.last_discovery = result
        return result

    def _absorb_advertisement(
        self, entry: Dict[str, Any], now: float, result: DiscoveryResult
    ) -> None:
        kind = entry.get("kind")
        source = entry.get("advertisement_id", "")
        try:
            if kind == "resource":
                document = ResourcePolicyDocument.from_dict(entry["document"])
                for resource in document.resources:
                    result.resources.append(resource)
                    for practice in practices_from_resource(resource):
                        notification = self.notifications.offer(
                            now,
                            practice,
                            summary="%s collects %s for %s"
                            % (
                                resource.name,
                                practice.category.value,
                                practice.purpose.value,
                            ),
                            source=source,
                        )
                        if notification is not None:
                            result.notifications.append(notification)
            elif kind == "service":
                document = ServicePolicyDocument.from_dict(entry["document"])
                result.services.append(document)
                for practice in practices_from_service(document):
                    notification = self.notifications.offer(
                        now,
                        practice,
                        summary="service %s uses %s for %s"
                        % (
                            document.service_id,
                            practice.category.value,
                            practice.purpose.value,
                        ),
                        source=source,
                    )
                    if notification is not None:
                        result.notifications.append(notification)
        except (SchemaError, KeyError):
            # A malformed advertisement must not kill the sweep.
            return
        settings = entry.get("settings")
        if settings is not None:
            try:
                result.settings.append(SettingsDocument.from_dict(settings))
            except SchemaError:
                pass

    # ------------------------------------------------------------------
    # Step 8: configuring settings
    # ------------------------------------------------------------------
    def choose_selection(self, space: SettingsSpace) -> Dict[str, str]:
        """Pick one option per group from the learned model."""
        selection = {}
        for group in space:
            offered = [choice.granularity for choice in group.choices]
            preferred = self.model.preferred_granularity(
                category=group.category,
                purpose=Purpose.PROVIDING_SERVICE,
                offered=offered,
            )
            chosen = group.best_at_most(preferred)
            selection[group.group_id] = chosen.key
        return selection

    def configure_building_settings(self, now: float) -> Dict[str, str]:
        """Fetch the building's settings space, choose, and submit.

        Returns the submitted selection; conflicts reported by the
        building are recorded and surfaced as notifications.
        """
        response = self._call(self.tippers_endpoint, "get_settings_document", {})
        document = SettingsDocument.from_dict(response)
        space = SettingsSpace.from_document(document)
        selection = self.choose_selection(space)
        submit_response = self._call(
            self.tippers_endpoint,
            "submit_selection",
            {"user_id": self.user_id, "selection": selection},
        )
        self.metrics.counter("iota_settings_submissions_total").inc()
        conflicts = submit_response.get("conflicts", [])
        self.metrics.counter("iota_conflicts_total").inc(len(conflicts))
        for conflict in conflicts:
            self.reported_conflicts.append(conflict)
        return selection

    @staticmethod
    def _preference_key(preference: UserPreference) -> str:
        return json.dumps(
            preference_to_dict(preference), sort_keys=True, separators=(",", ":")
        )

    def submit_preference(self, preference: UserPreference) -> List[str]:
        """Send an explicit preference to the building (step 8).

        Accepted preferences are recorded locally: the assistant is the
        durable carrier of its user's privacy posture, so a roaming
        handoff (:meth:`roam_to`) can re-push the full set to whichever
        building the user walks into.
        """
        response = self._call(
            self.tippers_endpoint,
            "submit_preference",
            {"preference": preference_to_dict(preference)},
        )
        key = self._preference_key(preference)
        if all(key != existing for existing, _ in self._submitted_preferences):
            self._submitted_preferences.append((key, preference))
        self._pushed_keys.setdefault(self.tippers_endpoint, set()).add(key)
        conflicts = list(response.get("conflicts", []))
        self.metrics.counter("iota_preference_submissions_total").inc()
        self.metrics.counter("iota_conflicts_total").inc(len(conflicts))
        self.reported_conflicts.extend(conflicts)
        return conflicts

    # ------------------------------------------------------------------
    # Roaming handoff (federation)
    # ------------------------------------------------------------------
    def roam_to(
        self,
        tippers_endpoint: str,
        registry_endpoint: str,
        profile_payload: Dict[str, Any],
        home_building_id: str,
        space_id: str,
        now: float,
    ) -> RoamResult:
        """Hand this assistant off to another building's shard.

        The Figure-1 loop, re-run at a building boundary: retarget the
        assistant's endpoints, re-discover the visited building's IRR
        (DEFERRABLE -- a shed sweep is tolerated, notifications arrive
        late), register the user as a roaming principal (CRITICAL --
        never shed; raises on failure so the caller sees a failed
        handoff), then re-push every recorded preference the visited
        shard has not yet acknowledged.  A re-push that fails mid-list
        leaves its progress recorded, so re-entering the same building
        resumes where the last handoff stopped instead of starting
        over.  ``home_building_id`` equal to the visited building marks
        a return home and clears the shard's roaming state.
        """
        re_entry = tippers_endpoint in self._visited_endpoints
        self.tippers_endpoint = tippers_endpoint
        self.registry_endpoints = [registry_endpoint]
        discovery = self.discover(space_id, now)
        response = self._call(
            tippers_endpoint,
            "register_roaming",
            {
                "profile": profile_payload,
                "home_building_id": home_building_id,
            },
        )
        self._visited_endpoints.add(tippers_endpoint)
        pushed_keys = self._pushed_keys.setdefault(tippers_endpoint, set())
        pushed = 0
        pending = 0
        for key, preference in list(self._submitted_preferences):
            if key in pushed_keys:
                continue
            try:
                self.submit_preference(preference)
            except (RpcError, NetworkError):
                pending += 1
                continue
            pushed += 1
        self.metrics.counter("iota_roaming_handoffs_total").inc()
        if re_entry:
            self.metrics.counter("iota_roaming_reentries_total").inc()
        return RoamResult(
            tippers_endpoint=tippers_endpoint,
            registry_endpoint=registry_endpoint,
            home_building_id=home_building_id,
            re_entry=re_entry,
            newly_added=bool(response.get("added", False)),
            preferences_pushed=pushed,
            preferences_pending=pending,
            notifications=len(discovery.notifications),
        )

    def rehome(
        self, tippers_endpoint: str, registry_endpoint: str
    ) -> Dict[str, int]:
        """Point this assistant at its user's *new* home shard.

        Called after a rebalancing migration moves the user between
        buildings: unlike :meth:`roam_to` there is no roaming
        registration (the destination already holds the migrated profile
        as a local), just an endpoint retarget plus a belt-and-braces
        re-push of any recorded preference the new home has not
        acknowledged to this assistant (the migration copied the
        preference *records*, but an acknowledgement the source gave is
        not one the destination gave; re-submission is latest-wins, so a
        duplicate push is harmless).  Returns push counts.
        """
        self.tippers_endpoint = tippers_endpoint
        self.registry_endpoints = [registry_endpoint]
        pushed_keys = self._pushed_keys.setdefault(tippers_endpoint, set())
        pushed = 0
        pending = 0
        for key, preference in list(self._submitted_preferences):
            if key in pushed_keys:
                continue
            try:
                self.submit_preference(preference)
            except (RpcError, NetworkError):
                pending += 1
                continue
            pushed += 1
        self.metrics.counter("iota_rehomes_total").inc()
        return {"preferences_pushed": pushed, "preferences_pending": pending}

    def fetch_effect_preview(self, now: float, space_id: Optional[str] = None) -> List[str]:
        """What the building will actually do with this user's data.

        Returns human-readable lines ("location/sharing: blocked",
        "location/capture: allowed at precise (mandatory policy
        overrides your preference)") that the assistant shows after
        configuring settings, so the user learns how much of her
        preference was honoured (Section III-B's "partially met").
        """
        payload: Dict[str, Any] = {"user_id": self.user_id, "now": now}
        if space_id is not None:
            payload["space_id"] = space_id
        response = self._call(self.tippers_endpoint, "preview_effects", payload)
        lines = []
        for entry in response.get("entries", []):
            if entry["effect"] == "deny":
                lines.append("%s/%s: blocked" % (entry["category"], entry["phase"]))
            else:
                suffix = (
                    " (mandatory policy overrides your preference)"
                    if entry.get("overridden")
                    else ""
                )
                lines.append(
                    "%s/%s: allowed at %s%s"
                    % (entry["category"], entry["phase"], entry["granularity"], suffix)
                )
        return lines

    # ------------------------------------------------------------------
    # Step 7: learning from feedback
    # ------------------------------------------------------------------
    def record_feedback(self, practice: DataPractice, allowed: bool) -> None:
        """Online-update the model from a user decision."""
        self.model.update(LabeledDecision(practice=practice, allowed=allowed))
