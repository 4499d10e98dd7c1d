"""Unit tests for the policy-set linter (rules P001-P014)."""

import pytest

from repro.analysis.policy_lint import (
    PURPOSE_MAX_GRANULARITY,
    PURPOSE_MAX_RETENTION,
    PolicyLinter,
    lint_dbh_scenario,
)
from repro.core.language.duration import Duration
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import TemporalCondition
from repro.core.policy.preference import UserPreference
from repro.spatial.model import build_simple_building


def policy(**overrides) -> BuildingPolicy:
    defaults = dict(
        policy_id="p",
        name="p",
        description="d",
        effect=Effect.ALLOW,
        categories=(DataCategory.LOCATION,),
        phases=(DecisionPhase.CAPTURE,),
        granularity=GranularityLevel.PRECISE,
        # Bounded, so P007's unbounded-retention case stays out of the
        # single-rule tests.
        retention=Duration.parse("P7D"),
    )
    defaults.update(overrides)
    return BuildingPolicy(**defaults)


def preference(**overrides) -> UserPreference:
    defaults = dict(
        preference_id="f",
        user_id="mary",
        description="d",
        effect=Effect.DENY,
        categories=(DataCategory.LOCATION,),
        phases=(DecisionPhase.CAPTURE,),
    )
    defaults.update(overrides)
    return UserPreference(**defaults)


@pytest.fixture
def spatial():
    return build_simple_building("b", 1, 2)


@pytest.fixture
def linter(spatial):
    return PolicyLinter(spatial=spatial)


def broken_resource_entry():
    """One resource entry seeding P002, P003, P004, and P007."""
    return {
        "info": {"name": "spy"},
        "sensor": {"type": "quantum_imager"},
        "purpose": {"vibes": "ambience curation", "comfort": "HVAC"},
        "observations": [
            {
                "name": "location",
                "granularity": "coarse",
                "inferred": ["astrological_sign"],
            }
        ],
        "retention": {"duration": "P10Y"},
    }


def broken_settings():
    """Settings offering finer location than the document declares (P008)."""
    return {
        "settings": [
            {
                "name": "location",
                "select": [
                    {
                        "description": "track me precisely",
                        "on": "always",
                        "granularity": "precise",
                    }
                ],
            }
        ]
    }


def broken_advertisements():
    bad = {
        "advertisement_id": "ad-ghost",
        "kind": "resource",
        "coverage_space_id": "ghost-wing",  # P001
        "document": {"resources": [broken_resource_entry()]},
        "settings": broken_settings(),
    }
    dup = {
        "advertisement_id": "ad-dup",
        "kind": "resource",
        "coverage_space_id": "b",
        "document": {"resources": []},
        "settings": None,
    }
    return [bad, dup, dict(dup)]  # duplicate id -> P010


def broken_policies():
    deny_all = policy(
        policy_id="deny-all",
        effect=Effect.DENY,
        categories=(),
        phases=tuple(DecisionPhase),
        priority=5,
    )
    shadowed = policy(policy_id="allow-hvac", priority=1)  # P005
    twin_allow = policy(
        policy_id="twin-allow", categories=(DataCategory.PRESENCE,)
    )
    twin_deny = policy(
        policy_id="twin-deny",
        categories=(DataCategory.PRESENCE,),
        effect=Effect.DENY,
    )  # P006 with twin_allow
    mandatory = policy(policy_id="must-locate", mandatory=True)  # P009 driver
    return [deny_all, shadowed, twin_allow, twin_deny, mandatory]


class TestBrokenFixture:
    def test_flags_many_distinct_defect_kinds(self, linter):
        findings = linter.lint_building(
            broken_policies(),
            preferences=[preference()],
            registry=broken_advertisements(),
        )
        found_rules = {finding.rule_id for finding in findings}
        expected = {
            "P001", "P002", "P003", "P004", "P005",
            "P006", "P007", "P008", "P009", "P010",
        }
        assert expected <= found_rules
        assert len(found_rules) >= 6

    def test_registry_accepts_plain_dicts(self, linter):
        findings = linter.lint_registry(broken_advertisements())
        assert any(f.rule_id == "P001" for f in findings)
        assert any(f.rule_id == "P010" for f in findings)

    def test_findings_carry_subjects(self, linter):
        findings = linter.lint_registry(broken_advertisements())
        assert all(f.subject for f in findings)


class TestIndividualRules:
    def test_p001_dangling_space_selector(self, linter):
        bad = policy(space_ids=("nowhere",))
        assert ["P001"] == [f.rule_id for f in linter.lint_policies([bad])]

    def test_p001_needs_a_spatial_model(self):
        bare = PolicyLinter()  # no spatial model: cannot check spaces
        assert bare.lint_policies([policy(space_ids=("nowhere",))]) == []

    def test_p002_unknown_sensor_selector(self, linter):
        bad = policy(sensor_types=("quantum_imager",))
        assert ["P002"] == [f.rule_id for f in linter.lint_policies([bad])]

    def test_p002_sensorless_placeholder_exempt(self, linter):
        entry = broken_resource_entry()
        entry["sensor"] = {"type": "none"}
        entry["purpose"] = {"comfort": "HVAC"}
        entry["observations"] = [{"name": "presence"}]
        entry["retention"] = {"duration": "P7D"}
        findings = linter.lint_resource_document({"resources": [entry]}, "ad")
        assert findings == []

    def test_p005_disjoint_scopes_clean(self, linter):
        deny = policy(
            policy_id="deny-presence",
            effect=Effect.DENY,
            categories=(DataCategory.PRESENCE,),
        )
        allow = policy(policy_id="allow-location")
        findings = [f for f in linter.lint_policies([deny, allow]) if f.rule_id == "P005"]
        assert findings == []

    def test_p005_mandatory_allow_is_shadowed(self, linter):
        # resolve() denies on any matched deny, mandatory allow or not.
        deny_all = policy(
            policy_id="deny-all", effect=Effect.DENY, categories=(), priority=9
        )
        protected = policy(policy_id="must-run", mandatory=True)
        findings = [
            f
            for f in linter.lint_policies([deny_all, protected])
            if f.rule_id == "P005"
        ]
        assert [f.subject for f in findings] == ["must-run"]

    def test_p005_conditional_deny_does_not_shadow(self, linter):
        night = TemporalCondition(start_hour=18.0, end_hour=8.0)
        deny_at_night = policy(
            policy_id="deny-night", effect=Effect.DENY, categories=(),
            condition=night,
        )
        allow = policy(policy_id="allow-location")
        findings = linter.lint_policies([deny_at_night, allow])
        assert "P005" not in [f.rule_id for f in findings]

    def test_p006_and_p011_share_the_scope(self, linter):
        allow = policy(policy_id="a", categories=(DataCategory.PRESENCE,))
        twin = policy(policy_id="b", categories=(DataCategory.PRESENCE,))
        deny = policy(
            policy_id="c", categories=(DataCategory.PRESENCE,), effect=Effect.DENY
        )
        findings = linter.lint_policies([allow, twin, deny])
        assert {(f.rule_id, f.subject) for f in findings} >= {
            ("P011", "b"), ("P006", "c"),
        }

    def test_p006_on_spaces_that_admit_the_same_requests(self, linter):
        # Room b-1001 lies in building b, so both admit every request
        # in b: the same scope, written two ways.
        allow = policy(policy_id="allow-b", space_ids=("b",))
        deny = policy(
            policy_id="deny-b", effect=Effect.DENY, space_ids=("b", "b-1001")
        )
        findings = linter.lint_policies([allow, deny])
        assert {(f.rule_id, f.subject) for f in findings} == {
            ("P005", "allow-b"), ("P006", "deny-b"),
        }

    def test_p011_on_spaces_that_admit_the_same_requests(self, linter):
        floor = policy(policy_id="floor", space_ids=("b-f1",))
        floor_and_room = policy(
            policy_id="floor-and-room", space_ids=("b-f1", "b-1001")
        )
        findings = linter.lint_policies([floor, floor_and_room])
        assert [(f.rule_id, f.subject) for f in findings] == [
            ("P011", "floor-and-room"),
        ]

    def test_p007_retention_within_bound_clean(self, linter):
        ok = policy(
            purposes=(Purpose.COMFORT,),
            retention=Duration.parse("P7D"),
        )
        assert [f for f in linter.lint_policies([ok]) if f.rule_id == "P007"] == []

    def test_p007_uses_most_permissive_purpose(self, linter):
        # RESEARCH allows P3Y, so COMFORT+RESEARCH at P2Y is fine.
        ok = policy(
            purposes=(Purpose.COMFORT, Purpose.RESEARCH),
            retention=Duration.parse("P2Y"),
        )
        assert [f for f in linter.lint_policies([ok]) if f.rule_id == "P007"] == []

    def test_p009_non_mandatory_policy_is_negotiable(self, linter):
        findings = linter.lint_conflicts([policy()], [preference()])
        assert findings == []

    def test_p009_mandatory_vs_optout(self, linter):
        findings = linter.lint_conflicts(
            [policy(mandatory=True)], [preference()]
        )
        assert [f.rule_id for f in findings] == ["P009"]
        assert "mary" in findings[0].message

    def test_purpose_table_covers_every_purpose(self):
        assert set(PURPOSE_MAX_RETENTION) == set(Purpose)
        assert set(PURPOSE_MAX_GRANULARITY) == set(Purpose)


class TestSelection:
    def test_select_restricts_output(self, spatial):
        narrow = PolicyLinter(spatial=spatial, select={"P001"})
        findings = narrow.lint_building(
            broken_policies(),
            preferences=[preference()],
            registry=broken_advertisements(),
        )
        assert findings
        assert {f.rule_id for f in findings} == {"P001"}


class TestShippedScenario:
    def test_dbh_scenario_is_clean(self):
        assert lint_dbh_scenario() == []

    def test_dbh_scenario_audits_the_deployment(self, monkeypatch):
        audited = []
        check = PolicyLinter._check_deployment

        def spy(self, policies):
            audited.append(self._deployed)
            return check(self, policies)

        monkeypatch.setattr(PolicyLinter, "_check_deployment", spy)
        assert lint_dbh_scenario() == []
        assert len(audited) == 1
        assert {"wifi_access_point", "camera"} <= audited[0]
