"""Static analyzer for policy artifacts (Section III-B's reasoner).

The paper calls for a *policy reasoner* that detects disagreements
before any request is served.  The runtime only ever checks one
building-policy/user-preference pair when a preference is submitted;
this module audits whole artifact sets ahead of time -- every
advertisement in an :class:`~repro.irr.registry.IoTResourceRegistry`,
every :class:`BuildingPolicy`, every stored preference -- the way P3P
deployments learned the hard way that machine-readable policies rot
without tooling that lints them as artifacts.

Rules (ids P001-P014; see ``docs/ANALYSIS.md`` for the full catalog):

========  =========================  =========================================
P001      dangling-space             space reference not in the spatial model
P002      unknown-sensor             sensor type not in the ontology
P003      unknown-purpose            purpose key outside the taxonomy
P004      dangling-inference         inferred category outside the vocabulary
P005      shadowed-rule              allow behind an unconditional covering deny
P006      contradictory-effects      identical scope, opposite effects
P007      retention-beyond-purpose   retention longer than the purpose allows
P008      settings-beyond-data       setting offers finer data than declared
P009      hard-conflict              mandatory policy vs user opt-out
P010      duplicate-advertisement    advertisement set repeats itself
P011      redundant-policy           two allows with identical scope
P012      over-collection            granularity finer than the purposes need
P013      unauthorized-sensor        deployed sensor type no allow covers
P014      unused-policy              policy names only undeployed sensors
========  =========================  =========================================

P013 and P014 run only when the linter is given the deployed sensor
types.

Advertisements are duck-typed: anything with ``advertisement_id`` /
``kind`` / ``coverage_space_id`` / ``document`` / ``settings``
attributes (or a dict with those keys) audits, so wire-form dicts from
a remote registry lint without reconstructing registry objects.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import (
    RULES,
    Finding,
    Severity,
    register_rule,
    selected,
    sort_findings,
)
from repro.core.language.duration import Duration
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import Always, EvaluationContext
from repro.core.policy.preference import UserPreference
from repro.core.policy.scope import Scope
from repro.core.reasoner.conflicts import ConflictKind, detect_conflicts_by_user
from repro.sensors.ontology import SensorOntology, default_ontology
from repro.spatial.model import SpatialModel

register_rule(
    "P001", "dangling-space", Severity.ERROR,
    "A coverage space or policy space selector names a space the spatial "
    "model does not contain; discovery and matching can never reach it.",
)
register_rule(
    "P002", "unknown-sensor", Severity.ERROR,
    "A resource document or policy names a sensor type the ontology does "
    "not define; its settings can never be validated or actuated.",
)
register_rule(
    "P003", "unknown-purpose", Severity.WARNING,
    "A purpose key is outside the purpose taxonomy, so its sensitivity "
    "and sharing class are unknown to the notification model.",
)
register_rule(
    "P004", "dangling-inference", Severity.WARNING,
    "An observation declares an inferred data category outside the "
    "vocabulary; preferences cannot be expressed against it.",
)
register_rule(
    "P005", "shadowed-rule", Severity.ERROR,
    "An allowing policy can never take effect: an unconditional denying "
    "policy covers its whole scope, and a matched deny always wins, "
    "whatever either policy's priority or mandatory flag.",
)
register_rule(
    "P006", "contradictory-effects", Severity.ERROR,
    "Two policies with identical scope (they admit the same requests) "
    "declare opposite effects; wherever both apply the deny wins, so the "
    "allow survives only where the deny's condition fails.",
)
register_rule(
    "P007", "retention-beyond-purpose", Severity.WARNING,
    "Declared retention exceeds what the purpose class plausibly needs, "
    "or an allowing policy collects personal data with no retention bound.",
)
register_rule(
    "P008", "settings-beyond-data", Severity.WARNING,
    "A settings option offers data at finer granularity than any "
    "observation the advertisement declares for that group.",
)
register_rule(
    "P009", "hard-conflict", Severity.ERROR,
    "A mandatory building policy overlaps a stored opt-out preference; "
    "the preference can never be honoured.",
)
register_rule(
    "P010", "duplicate-advertisement", Severity.WARNING,
    "The advertisement set repeats an advertisement id or an identical "
    "document; discovery returns redundant entries.",
)
register_rule(
    "P011", "redundant-policy", Severity.INFO,
    "Two allowing policies have identical scope (they admit the same "
    "requests); one of them adds nothing.",
)
register_rule(
    "P012", "over-collection", Severity.WARNING,
    "An allowing policy collects personal data at a finer granularity "
    "than any purpose it declares plausibly needs.",
)
register_rule(
    "P013", "unauthorized-sensor", Severity.WARNING,
    "A deployed sensor type is covered by no allowing policy; all its "
    "data is dropped at capture.",
)
register_rule(
    "P014", "unused-policy", Severity.INFO,
    "A policy names only sensor types that are not deployed, so it can "
    "never govern a capture.",
)


#: The longest retention each purpose class plausibly needs.  Documents
#: declaring more are flagged by P007 -- the taxonomy counterpart of the
#: runtime retention sweeper.
PURPOSE_MAX_RETENTION: Dict[Purpose, Duration] = {
    Purpose.EMERGENCY_RESPONSE: Duration.parse("P1Y"),
    Purpose.PROVIDING_SERVICE: Duration.parse("P1Y"),
    Purpose.SECURITY: Duration.parse("P1Y"),
    Purpose.LOGGING: Duration.parse("P90D"),
    Purpose.COMFORT: Duration.parse("P30D"),
    Purpose.ENERGY_MANAGEMENT: Duration.parse("P1Y"),
    Purpose.ACCESS_CONTROL: Duration.parse("P2Y"),
    Purpose.RESEARCH: Duration.parse("P3Y"),
    Purpose.MARKETING: Duration.parse("P30D"),
    Purpose.LAW_ENFORCEMENT: Duration.parse("P1Y"),
}

#: The finest granularity each purpose class plausibly needs.  Personal
#: data collected finer than every declared purpose needs is flagged by
#: P012.
PURPOSE_MAX_GRANULARITY: Dict[Purpose, GranularityLevel] = {
    Purpose.EMERGENCY_RESPONSE: GranularityLevel.PRECISE,
    Purpose.PROVIDING_SERVICE: GranularityLevel.PRECISE,
    Purpose.SECURITY: GranularityLevel.PRECISE,
    Purpose.LOGGING: GranularityLevel.COARSE,
    Purpose.COMFORT: GranularityLevel.COARSE,
    Purpose.ENERGY_MANAGEMENT: GranularityLevel.AGGREGATE,
    Purpose.ACCESS_CONTROL: GranularityLevel.PRECISE,
    Purpose.RESEARCH: GranularityLevel.AGGREGATE,
    Purpose.MARKETING: GranularityLevel.AGGREGATE,
    Purpose.LAW_ENFORCEMENT: GranularityLevel.PRECISE,
}

#: The phases in which a policy keeps data, so retention applies.
_KEEPING_PHASES = {DecisionPhase.CAPTURE, DecisionPhase.STORAGE}

#: Sensor-less resource entries compiled from pure sharing policies use
#: this placeholder type; it is not a dangling reference.
_SENSORLESS = {"", "none"}

_DATA_CATEGORY_VALUES = {category.value for category in DataCategory}


def _normalize_purpose(key: str) -> str:
    return key.strip().lower().replace(" ", "_")


def _known_purpose(key: str) -> bool:
    try:
        Purpose(_normalize_purpose(key))
        return True
    except ValueError:
        return False


class _Adv:
    """Uniform view over Advertisement objects and wire-form dicts."""

    def __init__(self, raw: Any) -> None:
        if isinstance(raw, dict):
            self.advertisement_id = str(raw.get("advertisement_id", ""))
            self.kind = str(raw.get("kind", ""))
            self.coverage_space_id = str(raw.get("coverage_space_id", ""))
            self.document = raw.get("document") or {}
            self.settings = raw.get("settings")
        else:
            self.advertisement_id = raw.advertisement_id
            self.kind = raw.kind
            self.coverage_space_id = raw.coverage_space_id
            self.document = raw.document
            self.settings = raw.settings


class PolicyLinter:
    """Audits advertisement sets, policies, and preference collections.

    ``spatial`` enables space-reference checks (P001) and space
    containment when scopes are compared; ``ontology`` defaults
    to the DBH ontology and drives the sensor checks (P002).
    ``select`` is a pre-expanded set of rule ids to keep (``None`` keeps
    all).  ``deployed_sensor_types`` (the sensor types installed in the
    building) enables the deployment checks P013 and P014.
    """

    def __init__(
        self,
        spatial: Optional[SpatialModel] = None,
        ontology: Optional[SensorOntology] = None,
        select: Optional[Set[str]] = None,
        deployed_sensor_types: Optional[Iterable[str]] = None,
    ) -> None:
        self._spatial = spatial
        self._ontology = ontology if ontology is not None else default_ontology()
        self._select = select
        self._deployed = (
            None if deployed_sensor_types is None
            else frozenset(deployed_sensor_types)
        )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def lint_registry(self, registry: Any) -> List[Finding]:
        """Audit a whole advertisement set.

        ``registry`` is anything with an ``advertisements()`` hook (the
        IRR), or a plain iterable of advertisements / wire dicts.
        """
        hook = getattr(registry, "advertisements", None)
        raw = hook() if callable(hook) else list(registry)
        advertisements = [_Adv(item) for item in raw]
        findings: List[Finding] = []
        for advertisement in advertisements:
            findings.extend(self.lint_advertisement(advertisement))
        findings.extend(self._check_duplicates(advertisements))
        return self._done(findings)

    def lint_building(
        self,
        policies: Sequence[BuildingPolicy],
        preferences: Sequence[UserPreference] = (),
        registry: Any = None,
    ) -> List[Finding]:
        """One-stop audit: policy set + conflicts + advertisements."""
        findings = list(self.lint_policies(policies))
        findings.extend(self.lint_conflicts(policies, preferences))
        if registry is not None:
            findings.extend(self.lint_registry(registry))
        return self._done(findings)

    # ------------------------------------------------------------------
    # Advertisements / documents
    # ------------------------------------------------------------------
    def lint_advertisement(self, advertisement: Any) -> List[Finding]:
        adv = advertisement if isinstance(advertisement, _Adv) else _Adv(advertisement)
        subject = adv.advertisement_id or "<advertisement>"
        findings: List[Finding] = []
        if self._spatial is not None and adv.coverage_space_id not in self._spatial:
            findings.append(self._finding(
                "P001", subject,
                "coverage space %r is not in the spatial model"
                % adv.coverage_space_id,
            ))
        if adv.kind == "resource":
            findings.extend(self.lint_resource_document(adv.document, subject))
        elif adv.kind == "service":
            findings.extend(self.lint_service_document(adv.document, subject))
        if adv.settings is not None:
            findings.extend(
                self._check_settings(adv.settings, adv.document, subject)
            )
        return self._done(findings)

    def lint_resource_document(
        self, data: Dict[str, Any], subject: str = "<resource-document>"
    ) -> List[Finding]:
        """Audit a Figure-2 dict (schema validity is assumed/lazy)."""
        findings: List[Finding] = []
        for entry in data.get("resources", ()):
            name = entry.get("info", {}).get("name", subject)
            where = "%s:%s" % (subject, name) if subject != name else subject
            sensor_type = entry.get("sensor", {}).get("type", "")
            if sensor_type not in _SENSORLESS and sensor_type not in self._ontology:
                findings.append(self._finding(
                    "P002", where,
                    "sensor type %r is not in the ontology" % sensor_type,
                ))
            findings.extend(self._check_purposes(entry.get("purpose", {}), where))
            findings.extend(
                self._check_observations(entry.get("observations", ()), where)
            )
            retention = entry.get("retention", {}).get("duration")
            if retention:
                findings.extend(self._check_document_retention(
                    retention, entry.get("purpose", {}), where
                ))
        return self._done(findings)

    def lint_service_document(
        self, data: Dict[str, Any], subject: str = "<service-document>"
    ) -> List[Finding]:
        """Audit a Figure-3 dict."""
        findings: List[Finding] = []
        purposes = {
            key: value
            for key, value in data.get("purpose", {}).items()
            if key != "service_id"
        }
        findings.extend(self._check_purposes(purposes, subject))
        findings.extend(
            self._check_observations(data.get("observations", ()), subject)
        )
        return self._done(findings)

    # ------------------------------------------------------------------
    # Policy sets and preference collections
    # ------------------------------------------------------------------
    def lint_policies(self, policies: Sequence[BuildingPolicy]) -> List[Finding]:
        findings: List[Finding] = []
        for policy in policies:
            if self._spatial is not None:
                for space_id in policy.space_ids:
                    if space_id not in self._spatial:
                        findings.append(self._finding(
                            "P001", policy.policy_id,
                            "space selector %r is not in the spatial model"
                            % space_id,
                        ))
            for sensor_type in policy.sensor_types:
                if sensor_type not in self._ontology:
                    findings.append(self._finding(
                        "P002", policy.policy_id,
                        "sensor type %r is not in the ontology" % sensor_type,
                    ))
            if policy.retention is not None:
                findings.extend(self._check_retention(
                    policy.retention, policy.purposes, policy.policy_id
                ))
            elif policy.collects_personal_data and any(
                phase in _KEEPING_PHASES for phase in policy.phases
            ):
                findings.append(self._finding(
                    "P007", policy.policy_id,
                    "%r collects personal data with no retention bound"
                    % policy.policy_id,
                ))
            findings.extend(self._check_over_collection(policy))
        findings.extend(self._check_shadowing(policies))
        findings.extend(self._check_same_scope(policies))
        if self._deployed is not None:
            findings.extend(self._check_deployment(policies))
        return self._done(findings)

    def lint_conflicts(
        self,
        policies: Sequence[BuildingPolicy],
        preferences: Sequence[UserPreference],
        context: Optional[EvaluationContext] = None,
    ) -> List[Finding]:
        """All-pairs HARD conflicts over the whole preference store."""
        if not policies or not preferences:
            return []
        if context is None:
            context = EvaluationContext(spatial=self._spatial)
        findings: List[Finding] = []
        by_user = detect_conflicts_by_user(
            policies, preferences, context, kinds=(ConflictKind.HARD,)
        )
        for user_id in sorted(by_user):
            for conflict in by_user[user_id]:
                findings.append(self._finding(
                    "P009", conflict.policy.policy_id,
                    "mandatory policy overlaps opt-out preference %r of "
                    "user %s; the preference can never be honoured"
                    % (conflict.preference.preference_id, user_id),
                ))
        return self._done(findings)

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------
    def _check_purposes(
        self, purposes: Dict[str, Any], subject: str
    ) -> List[Finding]:
        findings = []
        for key in purposes:
            if not _known_purpose(key):
                findings.append(self._finding(
                    "P003", subject,
                    "purpose %r is outside the purpose taxonomy" % key,
                ))
        return findings

    def _check_observations(
        self, observations: Sequence[Dict[str, Any]], subject: str
    ) -> List[Finding]:
        findings = []
        for observation in observations:
            for inferred in observation.get("inferred", ()):
                if inferred not in _DATA_CATEGORY_VALUES:
                    findings.append(self._finding(
                        "P004", subject,
                        "observation %r infers %r, which is not a data "
                        "category" % (observation.get("name", "?"), inferred),
                    ))
        return findings

    def _check_document_retention(
        self, duration_text: str, purposes: Dict[str, Any], subject: str
    ) -> List[Finding]:
        try:
            retention = Duration.parse(duration_text)
        except Exception:
            return []  # malformed durations are the schema's to reject
        named = [
            Purpose(_normalize_purpose(key))
            for key in purposes
            if _known_purpose(key)
        ]
        return self._check_retention(retention, named, subject)

    def _check_retention(
        self, retention: Duration, purposes: Sequence[Purpose], subject: str
    ) -> List[Finding]:
        """P007: retention past the most permissive purpose's bound."""
        if not purposes:
            return []
        allowed = max(
            PURPOSE_MAX_RETENTION[purpose].total_seconds() for purpose in purposes
        )
        if retention.total_seconds() > allowed:
            return [self._finding(
                "P007", subject,
                "retention %s exceeds the %ds its purposes allow"
                % (retention.isoformat(), allowed),
            )]
        return []

    def _check_settings(
        self, settings: Dict[str, Any], document: Dict[str, Any], subject: str
    ) -> List[Finding]:
        """P008: options must not promise finer data than is declared.

        A settings group named after an observation (e.g. ``location``)
        whose options include a granularity finer than the finest that
        observation is declared at advertises a cap the resource cannot
        produce data under -- the user would be choosing among lies.
        """
        declared: Dict[str, int] = {}
        for entry in document.get("resources", ()):
            for observation in entry.get("observations", ()):
                granularity = observation.get("granularity")
                if granularity is None:
                    continue
                rank = GranularityLevel.from_string(granularity).rank
                name = observation.get("name", "")
                declared[name] = max(declared.get(name, -1), rank)
        findings = []
        for group in settings.get("settings", ()):
            name = group.get("name", "")
            if name not in declared:
                continue
            for option in group.get("select", ()):
                granularity = option.get("granularity")
                if granularity is None:
                    continue
                rank = GranularityLevel.from_string(granularity).rank
                if rank > declared[name]:
                    findings.append(self._finding(
                        "P008", subject,
                        "settings group %r offers %s but the document "
                        "declares %r at most at rank %d"
                        % (name, granularity, name, declared[name]),
                    ))
        return findings

    def _check_over_collection(self, policy: BuildingPolicy) -> List[Finding]:
        """P012: personal data finer than every declared purpose needs."""
        if not policy.purposes or not policy.collects_personal_data:
            return []
        needed = max(
            (PURPOSE_MAX_GRANULARITY[purpose] for purpose in policy.purposes),
            key=lambda granularity: granularity.rank,
        )
        if policy.granularity.rank <= needed.rank:
            return []
        return [self._finding(
            "P012", policy.policy_id,
            "%r collects at %s but its purposes need at most %s"
            % (policy.policy_id, policy.granularity.value, needed.value),
        )]

    def _check_shadowing(
        self, policies: Sequence[BuildingPolicy]
    ) -> List[Finding]:
        """P005, the resolver's rule: a matched deny always denies.

        ``resolve()`` denies whenever any matched building policy
        denies, whatever its priority or ``mandatory`` flag, so an
        allowing policy whose scope a condition-free denying policy
        covers can never take effect.  A denying policy is never
        flagged: when it matches, it takes effect.
        """
        deniers = [
            policy for policy in policies
            if policy.effect is Effect.DENY and isinstance(policy.condition, Always)
        ]
        findings = []
        for allower in policies:
            if allower.effect is not Effect.ALLOW:
                continue
            for denier in deniers:
                if denier.scope.covers(allower.scope, self._spatial):
                    findings.append(self._finding(
                        "P005", allower.policy_id,
                        "%r can never take effect: %r denies its whole "
                        "scope unconditionally"
                        % (allower.policy_id, denier.policy_id),
                    ))
        return findings

    def _check_same_scope(
        self, policies: Sequence[BuildingPolicy]
    ) -> List[Finding]:
        """P006 (opposite effects) and P011 (two allows) on one scope key."""
        findings = []
        seen: Dict[Scope, BuildingPolicy] = {}
        for policy in policies:
            other = seen.setdefault(policy.scope.key(self._spatial), policy)
            if other is policy:
                continue
            if other.effect is not policy.effect:
                findings.append(self._finding(
                    "P006", policy.policy_id,
                    "%r and %r select identical requests but declare "
                    "opposite effects" % (other.policy_id, policy.policy_id),
                ))
            elif policy.effect is Effect.ALLOW:
                findings.append(self._finding(
                    "P011", policy.policy_id,
                    "%r and %r have identical scope"
                    % (other.policy_id, policy.policy_id),
                ))
        return findings

    def _check_deployment(
        self, policies: Sequence[BuildingPolicy]
    ) -> List[Finding]:
        """P013 (deployed, never authorized) and P014 (never deployed)."""
        deployed = self._deployed
        authorized: Set[str] = set()
        for policy in policies:
            if policy.effect is Effect.ALLOW:
                # An empty sensor selector authorizes every deployed type.
                authorized |= set(policy.sensor_types) or deployed
        findings = [
            self._finding(
                "P013", sensor_type,
                "deployed sensor type %r is covered by no policy; all its "
                "data will be dropped at capture" % sensor_type,
            )
            for sensor_type in sorted(deployed - authorized)
        ]
        for policy in policies:
            if policy.sensor_types and not deployed & set(policy.sensor_types):
                findings.append(self._finding(
                    "P014", policy.policy_id,
                    "%r only names sensor types that are not deployed"
                    % policy.policy_id,
                ))
        return findings

    def _check_duplicates(self, advertisements: List[_Adv]) -> List[Finding]:
        findings = []
        by_id: Dict[str, _Adv] = {}
        by_body: Dict[str, str] = {}
        for adv in advertisements:
            if adv.advertisement_id in by_id:
                findings.append(self._finding(
                    "P010", adv.advertisement_id,
                    "advertisement id %r appears more than once"
                    % adv.advertisement_id,
                ))
                continue
            by_id[adv.advertisement_id] = adv
            body = repr((adv.kind, adv.coverage_space_id, adv.document))
            if body in by_body:
                findings.append(self._finding(
                    "P010", adv.advertisement_id,
                    "advertisement %r duplicates the document of %r"
                    % (adv.advertisement_id, by_body[body]),
                ))
            else:
                by_body[body] = adv.advertisement_id
        return findings

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _finding(self, rule_id: str, subject: str, message: str) -> Finding:
        return Finding(
            rule_id=rule_id,
            severity=RULES[rule_id].severity,
            message=message,
            subject=subject,
        )

    def _done(self, findings: List[Finding]) -> List[Finding]:
        return sort_findings(
            finding for finding in findings if selected(finding, self._select)
        )


def lint_dbh_scenario(select: Optional[Set[str]] = None) -> List[Finding]:
    """Audit the shipped DBH deployment exactly as Figure 1 builds it.

    Policies, the compiled resource advertisement, the Figure-4 settings
    document, and the concierge service advertisement all pass through
    the linter, with the deployed sensor types enabling P013/P014; the
    result is the repo's own lint gate (and must stay empty).
    """
    from repro.core.policy import catalog
    from repro.irr.registry import IoTResourceRegistry
    from repro.services.concierge import SmartConcierge
    from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
    from repro.spatial.model import SpaceType

    tippers = make_dbh_tippers()
    rooms = [
        s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)
    ]
    meeting_rooms = [
        s.space_id
        for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)
        if s.attributes.get("meeting_room") == "yes"
    ]
    for policy in (
        catalog.policy_1_comfort(rooms),
        catalog.policy_2_emergency_location(BUILDING_ID),
        catalog.policy_3_meeting_room_access(meeting_rooms),
        catalog.policy_service_sharing(BUILDING_ID),
    ):
        tippers.define_policy(policy)
    registry = IoTResourceRegistry("irr-dbh", tippers.spatial)
    registry.publish_resource(
        "dbh-building-policies",
        BUILDING_ID,
        tippers.policy_manager.compile_policy_document(),
        settings=tippers.policy_manager.settings_space.to_document(),
    )
    registry.publish_service(
        "dbh-concierge", BUILDING_ID, SmartConcierge(tippers).policy_document()
    )
    linter = PolicyLinter(
        spatial=tippers.spatial,
        select=select,
        deployed_sensor_types={
            sensor.sensor_type for sensor in tippers.sensor_manager.sensors()
        },
    )
    return linter.lint_building(
        tippers.policy_manager.policies(), registry=registry
    )
