"""Unit tests for the shared finding/reporting core."""

import pytest

from repro.analysis.findings import (
    RULES,
    Finding,
    Rule,
    Severity,
    all_rules,
    exit_code,
    expand_selection,
    is_suppressed,
    register_rule,
    render_json,
    render_text,
    selected,
    sort_findings,
    suppressions_in,
)
from repro.errors import AnalysisError


def finding(**overrides) -> Finding:
    defaults = dict(
        rule_id="C003",
        severity=Severity.ERROR,
        message="bare except",
        file="src/x.py",
        line=3,
    )
    defaults.update(overrides)
    return Finding(**defaults)


class TestRegistry:
    def test_all_twenty_seven_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)
        assert {"C001", "C007", "F001", "F006", "P001", "P014"} <= set(ids)
        assert len(ids) == 27

    def test_duplicate_registration_rejected(self):
        all_rules()  # ensure analyzers imported
        with pytest.raises(AnalysisError):
            register_rule("C001", "dup", Severity.ERROR, "dup")

    def test_bad_rule_id_shape_rejected(self):
        with pytest.raises(AnalysisError):
            Rule("X123", "bad", Severity.ERROR, "bad")
        with pytest.raises(AnalysisError):
            Rule("C12", "bad", Severity.ERROR, "bad")

    def test_every_rule_has_a_summary(self):
        for rule in all_rules():
            assert rule.summary
            assert rule.name


class TestRendering:
    def test_str_includes_location_rule_and_severity(self):
        text = str(finding())
        assert text == "src/x.py:3: C003 bare-except [error] bare except"

    def test_subject_location_for_policy_findings(self):
        text = str(finding(rule_id="P001", file="", line=0, subject="pol-1"))
        assert text.startswith("pol-1: P001")

    def test_render_text_has_summary_tail(self):
        lines = render_text([finding(), finding(severity=Severity.WARNING)])
        assert len(lines) == 3
        assert lines[-1] == "2 finding(s): 1 error, 1 warning"

    def test_render_text_empty(self):
        assert render_text([]) == []

    def test_render_json_roundtrips_fields(self):
        payload = render_json([finding()])
        assert payload["count"] == 1
        entry = payload["findings"][0]
        assert entry["rule_id"] == "C003"
        assert entry["severity"] == "error"
        assert entry["file"] == "src/x.py"
        assert entry["line"] == 3


class TestOrderingAndExit:
    def test_sort_by_file_line_then_severity(self):
        later = finding(file="src/z.py", line=1)
        warn = finding(severity=Severity.WARNING, rule_id="C005", line=3)
        error = finding(line=3)
        first = finding(line=1)
        assert sort_findings([later, warn, error, first]) == [
            first, error, warn, later,
        ]

    def test_exit_code(self):
        assert exit_code([]) == 0
        assert exit_code([finding()]) == 1


class TestSelection:
    def test_prefix_expansion(self):
        chosen = expand_selection("C")
        assert chosen == {
            "C001", "C002", "C003", "C004", "C005", "C006", "C007",
        }

    def test_exact_and_mixed(self):
        assert expand_selection("C003,P001") == {"C003", "P001"}

    def test_empty_means_all(self):
        assert expand_selection(None) is None
        assert expand_selection("") is None

    def test_unknown_token_raises(self):
        with pytest.raises(AnalysisError):
            expand_selection("Z999")

    def test_selected(self):
        assert selected(finding(), None)
        assert selected(finding(), {"C003"})
        assert not selected(finding(), {"C001"})


class TestSuppression:
    def test_noqa_parsing(self):
        table = suppressions_in("x = 1\ny = 2  # repro: noqa=C002, C003\n")
        assert table == {2: {"C002", "C003"}}

    def test_is_suppressed_matches_line_and_rule(self):
        table = {3: {"C003"}}
        assert is_suppressed(finding(), table)
        assert not is_suppressed(finding(line=4), table)
        assert not is_suppressed(finding(rule_id="C001"), table)

    def test_all_wildcard(self):
        table = suppressions_in("a\nb\nc  # repro: noqa=ALL\n")
        assert is_suppressed(finding(), table)

    def test_severity_rank(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank
