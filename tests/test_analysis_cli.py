"""End-to-end tests for ``python -m repro lint`` and the rule docs."""

import json
import os

import pytest

from repro.__main__ import main
from repro.analysis import all_rules

#: One seeded violation per code rule; each snippet triggers exactly
#: the rule it is named after when dropped into the fixture tree.
VIOLATIONS = {
    "C001": "import time\nstamp = time.time()\n",
    "C002": "import random\nrng = random.Random()\n",
    "C003": "try:\n    pass\nexcept:\n    pass\n",
    "C004": "def f(items=[]):\n    return items\n",
    "C005": "def run(registry):\n    registry.counter('cacheHits')\n",
    "C006": "from repro.tippers.policy_manager import PolicyManager\n"
            "MANAGER = PolicyManager\n",
    # C007 only applies to the client layers; the fixture routes it
    # into src/repro/services/ below.
    "C007": "def f(bus):\n    return bus.call('tippers', 'locate_user', {})\n",
    "C008": "import json\n",
}


@pytest.fixture
def fixture_tree(tmp_path):
    """A tree with one file per code rule, each seeding one violation."""
    for rule_id, source in VIOLATIONS.items():
        layer = "services" if rule_id == "C007" else "core"
        package = tmp_path / "src" / "repro" / layer
        package.mkdir(parents=True, exist_ok=True)
        (package / ("bad_%s.py" % rule_id.lower())).write_text(source)
    return str(tmp_path)


class TestMergedTreeIsClean:
    def test_lint_src_and_tests_exits_zero(self, capsys):
        assert main(["lint", "src", "tests"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_policy_audit_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out


class TestFixtureTree:
    def test_every_code_rule_fires_once(self, capsys, fixture_tree):
        assert main(["lint", fixture_tree]) == 1
        out = capsys.readouterr().out
        for rule_id in VIOLATIONS:
            assert out.count(rule_id) == 1, "expected exactly one %s" % rule_id
        assert "%d finding(s)" % len(VIOLATIONS) in out

    def test_single_rule_selection(self, capsys, fixture_tree):
        assert main(["lint", "--select", "C003", fixture_tree]) == 1
        out = capsys.readouterr().out
        assert "C003" in out
        assert "C001" not in out

    def test_json_format(self, capsys, fixture_tree):
        assert main(["lint", "--format", "json", fixture_tree]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(VIOLATIONS)
        fired = {entry["rule_id"] for entry in payload["findings"]}
        assert fired == set(VIOLATIONS)
        assert all(entry["file"] for entry in payload["findings"])

    def test_noqa_silences_the_fixture(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\nrng = random.Random()  # repro: noqa=C002\n"
        )
        assert main(["lint", str(tmp_path)]) == 0


class TestJsonOutputIsPure:
    """``--format json``/``sarif`` stdout must be exactly one JSON doc.

    Regression guard: no banner, summary line, or stale-baseline note
    may ever leak onto stdout in machine-readable modes -- CI pipes
    these straight into parsers.
    """

    def test_whole_stdout_parses_with_findings(self, capsys, fixture_tree):
        assert main(["lint", "--format", "json", fixture_tree]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["count"] == len(VIOLATIONS)
        assert out.strip().startswith("{")
        assert out.strip().endswith("}")

    def test_whole_stdout_parses_when_clean(self, capsys, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", "--format", "json", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "count": 0,
            "findings": [],
        }

    def test_policy_audit_json_is_pure(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0

    def test_sarif_stdout_is_pure(self, capsys, fixture_tree):
        assert main(["lint", "--format", "sarif", fixture_tree]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert len(payload["runs"][0]["results"]) == len(VIOLATIONS)

    def test_flow_json_stdout_is_pure(self, capsys):
        assert main(["lint", "--flow", "src", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["stale_baseline_entries"] == []


class TestUsageErrors:
    def test_unknown_select_exits_two(self, capsys):
        assert main(["lint", "--select", "Z999", "src"]) == 2
        assert "matches no registered rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/tree"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestRuleCatalogDocs:
    def test_every_rule_id_documented(self):
        docs = os.path.join(os.path.dirname(__file__), "..", "docs", "ANALYSIS.md")
        with open(docs, "r", encoding="utf-8") as handle:
            text = handle.read()
        for rule in all_rules():
            assert rule.rule_id in text, (
                "rule %s is not documented in docs/ANALYSIS.md" % rule.rule_id
            )
            assert rule.name in text, (
                "rule name %r is not documented in docs/ANALYSIS.md" % rule.name
            )

    def test_help_mentions_lint_modes(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "--select" in out
        assert "--format" in out
        assert "--flow" in out
        assert "--write-baseline" in out
