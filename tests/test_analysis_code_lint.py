"""Unit tests for the AST code linter (rules C001-C008)."""

import textwrap

import pytest

from repro.analysis.code_lint import LAYER_DAG, CodeLinter, lint_paths
from repro.errors import AnalysisError


def lint(source: str, filename: str = "snippet.py"):
    return CodeLinter().lint_source(textwrap.dedent(source), filename=filename)


def rule_ids(source: str, filename: str = "snippet.py"):
    return [f.rule_id for f in lint(source, filename)]


class TestWallClock:
    def test_time_time_flagged(self):
        assert rule_ids("import time\nstamp = time.time()\n") == ["C001"]

    def test_datetime_now_flagged(self):
        assert rule_ids(
            "import datetime\nwhen = datetime.datetime.now()\n"
        ) == ["C001"]

    def test_from_import_alias_resolved(self):
        assert rule_ids("from time import time as now\nstamp = now()\n") == ["C001"]

    def test_import_alias_resolved(self):
        assert rule_ids("import datetime as dt\nwhen = dt.date.today()\n") == ["C001"]

    def test_perf_counter_clean(self):
        assert rule_ids("import time\nelapsed = time.perf_counter()\n") == []

    def test_injected_clock_clean(self):
        assert rule_ids("def f(clock):\n    return clock.now()\n") == []

    def test_monotonic_flagged(self):
        assert rule_ids("import time\nstamp = time.monotonic()\n") == ["C001"]

    def test_utcnow_through_assignment_alias_flagged(self):
        assert rule_ids(
            "import datetime\n"
            "_now = datetime.datetime.utcnow\n"
            "stamp = _now()\n"
        ) == ["C001"]

    def test_assignment_alias_chain_resolved(self):
        assert rule_ids(
            "import time\nt = time\n_now = t.time\nstamp = _now()\n"
        ) == ["C001"]

    def test_unrelated_assignment_not_an_alias(self):
        assert rule_ids(
            "def now():\n    return 0\n_now = now\nstamp = _now()\n"
        ) == []


class TestUnseededRandom:
    def test_global_function_flagged(self):
        assert rule_ids("import random\nx = random.choice([1, 2])\n") == ["C002"]

    def test_unseeded_random_instance_flagged(self):
        assert rule_ids("import random\nrng = random.Random()\n") == ["C002"]

    def test_seeded_random_clean(self):
        assert rule_ids("import random\nrng = random.Random(0)\n") == []

    def test_instance_method_clean(self):
        assert rule_ids("def f(rng):\n    return rng.random()\n") == []

    def test_from_import_flagged(self):
        assert rule_ids("from random import shuffle\nshuffle([1])\n") == ["C002"]

    def test_lambda_body_flagged(self):
        assert rule_ids(
            "import random\npick = lambda xs: random.choice(xs)\n"
        ) == ["C002"]

    def test_comprehension_flagged(self):
        assert rule_ids(
            "import random\nnoise = [random.random() for _ in range(3)]\n"
        ) == ["C002"]

    def test_unseeded_random_in_comprehension_flagged(self):
        assert rule_ids(
            "import random\nrngs = [random.Random() for _ in range(2)]\n"
        ) == ["C002"]

    def test_constructor_assignment_alias_flagged(self):
        assert rule_ids(
            "import random\nR = random.Random\nrng = R()\n"
        ) == ["C002"]

    def test_seeded_through_alias_clean(self):
        assert rule_ids(
            "import random\nR = random.Random\nrng = R(7)\n"
        ) == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        assert rule_ids(
            "try:\n    pass\nexcept:\n    pass\n"
        ) == ["C003"]

    def test_typed_except_clean(self):
        assert rule_ids(
            "try:\n    pass\nexcept ValueError:\n    pass\n"
        ) == []


class TestMutableDefault:
    def test_list_literal_flagged(self):
        assert rule_ids("def f(items=[]):\n    pass\n") == ["C004"]

    def test_dict_call_flagged(self):
        assert rule_ids("def f(table=dict()):\n    pass\n") == ["C004"]

    def test_kwonly_default_flagged(self):
        assert rule_ids("def f(*, tags={'a'}):\n    pass\n") == ["C004"]

    def test_none_default_clean(self):
        assert rule_ids("def f(items=None):\n    pass\n") == []

    def test_tuple_default_clean(self):
        assert rule_ids("def f(items=()):\n    pass\n") == []


class TestMetricName:
    def test_camel_case_counter_flagged(self):
        assert rule_ids("registry.counter('cacheHits')\n") == ["C005"]

    def test_dashes_in_span_flagged(self):
        assert rule_ids("tracer.span('child-1')\n") == ["C005"]

    def test_snake_and_dotted_clean(self):
        assert rule_ids(
            "registry.counter('bus_calls_total')\ntracer.span('bus.call')\n"
        ) == []

    def test_non_literal_name_ignored(self):
        assert rule_ids("registry.counter(name)\n") == []

    def test_unrelated_method_ignored(self):
        assert rule_ids("obj.lookup('Not-A-Metric')\n") == []


class TestLayering:
    def test_core_importing_tippers_flagged(self):
        ids = rule_ids(
            "from repro.tippers.policy_manager import PolicyManager\n"
            "MANAGER = PolicyManager\n",
            filename="src/repro/core/engine.py",
        )
        assert ids == ["C006"]

    def test_downward_import_clean(self):
        assert rule_ids(
            "from repro.spatial.model import SpatialModel\n"
            "MODEL = SpatialModel\n",
            filename="src/repro/core/engine.py",
        ) == []

    def test_function_local_import_is_escape_hatch(self):
        assert rule_ids(
            "def wire():\n    from repro.irr.registry import IoTResourceRegistry\n",
            filename="src/repro/analysis/policy_lint.py",
        ) == []

    def test_top_level_modules_exempt(self):
        assert rule_ids(
            "from repro.simulation.dbh import make_dbh_tippers\n"
            "BUILD = make_dbh_tippers\n",
            filename="src/repro/__main__.py",
        ) == []

    def test_files_outside_repro_not_layer_checked(self):
        assert rule_ids(
            "from repro.tippers.policy_manager import PolicyManager\n"
            "MANAGER = PolicyManager\n",
            filename="tests/test_x.py",
        ) == []

    def test_dag_is_acyclic(self):
        seen = set()

        def visit(layer, stack):
            assert layer not in stack, "cycle through %r" % layer
            if layer in seen:
                return
            seen.add(layer)
            for dep in LAYER_DAG[layer]:
                visit(dep, stack | {layer})

        for layer in LAYER_DAG:
            visit(layer, set())


class TestUnusedImport:
    def test_unused_import_flagged(self):
        assert rule_ids("import json\n") == ["C008"]

    def test_unused_from_import_flags_its_own_line(self):
        findings = lint(
            "from typing import (\n    Dict,\n    List,\n)\nx: Dict = {}\n"
        )
        assert [(f.rule_id, f.line) for f in findings] == [("C008", 3)]

    def test_used_names_clean(self):
        assert rule_ids(
            "import os.path\nfrom json import dumps as d\n"
            "print(os.path.sep, d)\n"
        ) == []

    def test_future_import_exempt(self):
        assert rule_ids("from __future__ import annotations\n") == []

    def test_init_module_exempt(self):
        assert rule_ids(
            "from json import dumps\n", filename="src/repro/pkg/__init__.py"
        ) == []

    def test_name_in_dunder_all_clean(self):
        assert rule_ids(
            "from json import dumps\n__all__ = ['dumps']\n"
        ) == []

    def test_name_used_only_in_string_annotation_clean(self):
        assert rule_ids(
            "from typing import Optional\nfrom json import JSONDecoder\n"
            "def f(x: 'Optional[JSONDecoder]') -> None:\n    return None\n"
        ) == []

    def test_function_local_import_not_checked(self):
        assert rule_ids("def f():\n    import json\n") == []

    def test_noqa_suppresses(self):
        assert rule_ids("import json  # repro: noqa=C008\n") == []


class TestSuppressionAndErrors:
    def test_noqa_suppresses_on_the_flagged_line(self):
        assert rule_ids(
            "import random\nrng = random.Random()  # repro: noqa=C002\n"
        ) == []

    def test_noqa_other_rule_does_not_suppress(self):
        assert rule_ids(
            "import random\nrng = random.Random()  # repro: noqa=C001\n"
        ) == ["C002"]

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert len(findings) == 1
        assert "cannot parse" in findings[0].message

    def test_lint_paths_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            lint_paths(["/no/such/path"])

    def test_lint_paths_walks_tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text(
            "try:\n    pass\nexcept:\n    pass\n"
        )
        (tmp_path / "pkg" / "notes.txt").write_text("except:\n")
        findings = lint_paths([str(tmp_path)])
        assert [f.rule_id for f in findings] == ["C003"]
        assert findings[0].file.endswith("bad.py")

    def test_select_restricts_rules(self):
        linter = CodeLinter(select={"C003"})
        source = "import random\ntry:\n    random.random()\nexcept:\n    pass\n"
        assert [f.rule_id for f in linter.lint_source(source)] == ["C003"]
