"""The policy reasoner's set-level checks (Section V-A) as lint rules.

Shadowing (P005), unbounded retention (P007), redundancy (P011),
over-collection (P012) and the deployment cross-checks (P013/P014) of
:class:`~repro.analysis.policy_lint.PolicyLinter`, each asserted by
rule id.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.policy_lint import PolicyLinter
from repro.core.language.duration import Duration
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.building import BuildingPolicy


def policy(pid, **overrides):
    defaults = dict(
        policy_id=pid,
        name=pid,
        description="d",
        effect=Effect.ALLOW,
        categories=(DataCategory.LOCATION,),
        sensor_types=("wifi_access_point",),
        phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
        purposes=(Purpose.SECURITY,),
        retention=Duration.parse("P30D"),
    )
    defaults.update(overrides)
    return BuildingPolicy(**defaults)


def lint(policies, deployed_sensor_types=None):
    linter = PolicyLinter(deployed_sensor_types=deployed_sensor_types)
    return linter.lint_policies(policies)


def rules_of(findings):
    return [f.rule_id for f in findings]


class TestShadowedPolicy:
    def test_deny_covering_allow_flagged(self):
        findings = lint(
            [
                policy("allow-wifi"),
                policy("deny-all", effect=Effect.DENY, categories=(), sensor_types=()),
            ]
        )
        assert "P005" in rules_of(findings)
        assert any(f.severity is Severity.ERROR for f in findings)

    def test_lower_priority_deny_still_shadows(self):
        # resolve() denies whenever a matched policy denies, so the
        # allow's higher priority does not save it.
        findings = lint(
            [
                policy("allow-wifi", priority=5),
                policy("deny-all", effect=Effect.DENY, categories=(), sensor_types=(), priority=0),
            ]
        )
        assert [f.subject for f in findings if f.rule_id == "P005"] == ["allow-wifi"]

    def test_partial_deny_does_not_shadow(self):
        findings = lint(
            [
                policy("allow-both", categories=(DataCategory.LOCATION, DataCategory.PRESENCE)),
                policy(
                    "deny-presence",
                    effect=Effect.DENY,
                    categories=(DataCategory.PRESENCE,),
                ),
            ]
        )
        assert "P005" not in rules_of(findings)

    def test_wildcard_allow_not_covered_by_specific_deny(self):
        findings = lint(
            [
                policy("allow-everything", categories=()),
                policy("deny-location", effect=Effect.DENY),
            ]
        )
        assert "P005" not in rules_of(findings)


class TestRetentionCheck:
    def test_personal_data_without_retention_flagged(self):
        findings = lint([policy("p", retention=None)])
        assert "P007" in rules_of(findings)

    def test_non_personal_data_exempt(self):
        findings = lint(
            [policy("p", categories=(DataCategory.TEMPERATURE,), retention=None)]
        )
        assert "P007" not in rules_of(findings)

    def test_sharing_only_policy_exempt(self):
        findings = lint(
            [policy("p", phases=(DecisionPhase.SHARING,), retention=None)]
        )
        assert "P007" not in rules_of(findings)


class TestRedundantAndOverCollection:
    def test_identical_scope_flagged(self):
        findings = lint([policy("a"), policy("b")])
        assert "P011" in rules_of(findings)

    def test_different_scope_not_flagged(self):
        findings = lint(
            [policy("a"), policy("b", purposes=(Purpose.COMFORT,))]
        )
        assert "P011" not in rules_of(findings)

    def test_over_collection_flagged(self):
        findings = lint(
            [
                policy(
                    "research-precise",
                    purposes=(Purpose.RESEARCH,),
                    granularity=GranularityLevel.PRECISE,
                )
            ]
        )
        assert "P012" in rules_of(findings)

    def test_emergency_precise_is_fine(self):
        findings = lint([catalog.policy_2_emergency_location("b")])
        assert "P012" not in rules_of(findings)


class TestDeploymentCrossChecks:
    def test_unauthorized_sensor_flagged(self):
        findings = lint(
            [policy("p")], deployed_sensor_types={"wifi_access_point", "camera"}
        )
        messages = [f.message for f in findings if f.rule_id == "P013"]
        assert any("camera" in m for m in messages)

    def test_wildcard_policy_authorizes_all(self):
        findings = lint(
            [policy("p", sensor_types=())],
            deployed_sensor_types={"wifi_access_point", "camera"},
        )
        assert "P013" not in rules_of(findings)

    def test_unused_policy_flagged(self):
        findings = lint(
            [policy("p", sensor_types=("id_card_reader",))],
            deployed_sensor_types={"camera"},
        )
        assert "P014" in rules_of(findings)

    def test_no_deployment_info_skips_checks(self):
        findings = lint([policy("p")])
        assert "P013" not in rules_of(findings)
        assert "P014" not in rules_of(findings)


class TestOrderingAndFormatting:
    def test_errors_sort_first(self):
        findings = lint(
            [
                policy("allow-wifi", retention=None),
                policy("deny-all", effect=Effect.DENY, categories=(), sensor_types=()),
            ]
        )
        assert findings[0].severity is Severity.ERROR

    def test_str_mentions_check(self):
        finding = Finding(
            rule_id="P011", severity=Severity.INFO, message="m", subject="p"
        )
        assert "redundant-policy" in str(finding)

    def test_clean_set_produces_nothing(self):
        findings = lint(
            [catalog.policy_2_emergency_location("b")],
            deployed_sensor_types={"wifi_access_point"},
        )
        assert findings == []
