"""The interprocedural privacy-flow analyzer (rules F001-F006).

Each scenario is a tiny in-memory module tree fed through
``analyze_flow_sources`` with a narrow :class:`FlowModel`, so every
rule is exercised in isolation: firing, suppression, and the baseline
subtraction that makes the gate adoptable.
"""

import inspect
import json
import re
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis.flow import (
    FLOW_BASELINE_VERSION,
    BaselineEntry,
    FlowBaseline,
    apply_baseline,
    baseline_from_findings,
    load_baseline,
    write_baseline,
)
from repro.analysis.flow.analyzer import analyze_flow_sources
from repro.analysis.flow.callgraph import (
    build_call_graph_from_sources,
    collect_files,
)
from repro.analysis.flow.model import DEFAULT_MODEL, FlowModel
from repro.errors import AnalysisError

#: A self-contained pipeline: sensor source, response sink, engine
#: sanitizer, audit log -- everything the F-rules talk about.
MODEL = FlowModel(
    source_specs=(r"^repro\.pipe\.app\.Sensor\.sample$",),
    sink_specs=(r"^repro\.pipe\.app\.Response(\.denied)?$",),
    sanitizer_specs=(r"^repro\.pipe\.app\.Engine\.decide$",),
    audit_specs=(r"^repro\.pipe\.app\.Audit\.record$",),
)

APP_PATH = "src/repro/pipe/app.py"

COMMON = textwrap.dedent(
    """
    class Sensor:
        def sample(self):
            return {"who": "mary"}

    class Response:
        def __init__(self, rows):
            self.rows = rows

        @classmethod
        def denied(cls, reasons):
            return cls(tuple(reasons))

    class Engine:
        def decide(self, request):
            return request

    class Audit:
        def record(self, entry):
            return entry
    """
)


def analyze(body, model=MODEL, path=APP_PATH, extra=None):
    sources = {path: COMMON + textwrap.dedent(body)}
    if extra:
        sources.update(extra)
    return analyze_flow_sources(sources, model=model)


class TestCallGraph:
    def test_declares_functions_methods_and_class_nodes(self):
        graph = build_call_graph_from_sources({APP_PATH: COMMON}, MODEL)
        assert "repro.pipe.app.Sensor.sample" in graph.functions
        assert "repro.pipe.app.Response.denied" in graph.functions
        assert graph.functions["repro.pipe.app.Sensor"].is_class

    def test_constructor_pseudo_edge(self):
        graph = build_call_graph_from_sources({APP_PATH: COMMON}, MODEL)
        sites = graph.sites_of("repro.pipe.app.Response")
        assert any(
            site.candidates == ("repro.pipe.app.Response.__init__",)
            for site in sites
        )

    def test_param_annotation_resolves_receiver(self):
        graph = build_call_graph_from_sources({APP_PATH: COMMON + textwrap.dedent(
            """
            def use(sensor: Sensor):
                return sensor.sample()
            """
        )}, MODEL)
        assert "repro.pipe.app.use" in graph.callers_of(
            "repro.pipe.app.Sensor.sample"
        )

    def test_bus_topic_registration_builds_a_direct_edge(self):
        sources = {
            "src/repro/pipe/endpoint.py": textwrap.dedent(
                """
                class Endpoint:
                    def handle(self, method, payload):
                        return payload
                """
            ),
            "src/repro/pipe/wiring.py": textwrap.dedent(
                """
                from repro.pipe.endpoint import Endpoint

                def wire(bus):
                    endpoint = Endpoint()
                    bus.register("pipe", endpoint)

                def client(bus):
                    return bus.call("pipe", "method", {})
                """
            ),
        }
        graph = build_call_graph_from_sources(sources, MODEL)
        assert graph.topics == {"pipe": "repro.pipe.endpoint.Endpoint.handle"}
        sites = graph.sites_of("repro.pipe.wiring.client")
        assert any(
            site.candidates == ("repro.pipe.endpoint.Endpoint.handle",)
            for site in sites
        )

    def test_non_constant_bus_target_is_a_dynamic_site(self):
        graph = build_call_graph_from_sources({
            "src/repro/pipe/wiring.py": textwrap.dedent(
                """
                def client(bus, topic):
                    return bus.call(topic, "method", {})
                """
            ),
        }, MODEL)
        sites = graph.sites_of("repro.pipe.wiring.client")
        assert any(site.dynamic for site in sites)

    def test_prefix_registration_resolves_sharded_call_sites(self):
        # The federation pattern: endpoints register under
        # ``PREFIX + building_id`` with the prefix constant imported
        # from another module; calls through the same expression (or a
        # constant topic sharing the prefix) must resolve, not go
        # dynamic.
        sources = {
            "src/repro/pipe/naming.py": 'SHARD_PREFIX = "shard-"\n',
            "src/repro/pipe/endpoint.py": textwrap.dedent(
                """
                class Endpoint:
                    def handle(self, method, payload):
                        return payload
                """
            ),
            "src/repro/pipe/wiring.py": textwrap.dedent(
                """
                from repro.pipe.endpoint import Endpoint
                from repro.pipe.naming import SHARD_PREFIX

                def wire(bus, building_id):
                    endpoint = Endpoint()
                    bus.register(SHARD_PREFIX + building_id, endpoint)

                def client(bus, building_id):
                    return bus.call(SHARD_PREFIX + building_id, "m", {})

                def pinned_client(bus):
                    return bus.call("shard-bldg-a", "m", {})
                """
            ),
        }
        graph = build_call_graph_from_sources(sources, MODEL)
        handle = "repro.pipe.endpoint.Endpoint.handle"
        assert graph.topic_prefixes == {"shard-": handle}
        for caller in ("client", "pinned_client"):
            sites = graph.sites_of("repro.pipe.wiring.%s" % caller)
            assert [s.candidates for s in sites] == [(handle,)]
            assert not any(s.dynamic for s in sites)

    def test_longest_registered_prefix_wins(self):
        sources = {
            "src/repro/pipe/endpoint.py": textwrap.dedent(
                """
                class Endpoint:
                    def handle(self, method, payload):
                        return payload

                class Registry:
                    def handle(self, method, payload):
                        return payload
                """
            ),
            "src/repro/pipe/wiring.py": textwrap.dedent(
                """
                from repro.pipe.endpoint import Endpoint, Registry

                SHORT = "svc-"
                LONG = "svc-registry-"

                def wire(bus, suffix):
                    endpoint = Endpoint()
                    registry = Registry()
                    bus.register(SHORT + suffix, endpoint)
                    bus.register(LONG + suffix, registry)

                def client(bus, suffix):
                    return bus.call(LONG + suffix, "m", {})
                """
            ),
        }
        graph = build_call_graph_from_sources(sources, MODEL)
        sites = graph.sites_of("repro.pipe.wiring.client")
        assert [s.candidates for s in sites] == [
            ("repro.pipe.endpoint.Registry.handle",),
        ]

    def test_classmethod_cls_call_resolves_to_the_class(self):
        graph = build_call_graph_from_sources({APP_PATH: COMMON}, MODEL)
        sites = graph.sites_of("repro.pipe.app.Response.denied")
        assert [s.candidates for s in sites] == [("repro.pipe.app.Response",)]
        assert not any(s.dynamic for s in sites)

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            collect_files(["/no/such/tree"])


class TestF001UnenforcedFlow:
    def test_source_to_sink_without_enforcement_fires(self):
        findings = analyze(
            """
            def leak(sensor: Sensor):
                rows = sensor.sample()
                return Response(rows)
            """
        )
        assert [f.rule_id for f in findings] == ["F001"]
        assert "repro.pipe.app.leak" == findings[0].subject
        assert "repro.pipe.app.Sensor.sample" in findings[0].message

    def test_enforced_flow_is_clean(self):
        findings = analyze(
            """
            def safe(sensor: Sensor, engine: Engine):
                rows = sensor.sample()
                decision = engine.decide(rows)
                if decision:
                    return Response(rows)
                return None
            """
        )
        assert findings == []

    def test_wrapper_blocks_only_itself_not_a_parallel_path(self):
        # ``route`` calls the sanitizing wrapper AND leaks directly;
        # the wrapper must not shield the parallel path.
        findings = analyze(
            """
            def enforce(engine: Engine, rows):
                return engine.decide(rows)

            def route(sensor: Sensor, engine: Engine):
                rows = sensor.sample()
                enforce(engine, rows)
                return Response(rows)
            """
        )
        assert any(
            f.rule_id == "F001" and f.subject == "repro.pipe.app.route"
            for f in findings
        )


class TestF002UncheckedDecision:
    def test_discarded_decision_fires(self):
        findings = analyze(
            """
            def check(engine: Engine, rows):
                engine.decide(rows)
                return rows
            """
        )
        assert [f.rule_id for f in findings] == ["F002"]
        assert "discarded" in findings[0].message

    def test_assigned_but_never_read_fires(self):
        findings = analyze(
            """
            def check(engine: Engine, rows):
                decision = engine.decide(rows)
                return rows
            """
        )
        assert [f.rule_id for f in findings] == ["F002"]
        assert "never read" in findings[0].message

    def test_consulted_decision_is_clean(self):
        findings = analyze(
            """
            def check(engine: Engine, rows):
                decision = engine.decide(rows)
                return rows if decision else None
            """
        )
        assert findings == []

    def test_noqa_suppresses(self):
        findings = analyze(
            """
            def check(engine: Engine, rows):
                engine.decide(rows)  # repro: noqa=F002
                return rows
            """
        )
        assert findings == []


class TestF003SuppressedSource:
    def test_suppressed_f001_leaves_a_residual_at_the_source(self):
        findings = analyze(
            """
            def leak(sensor: Sensor):
                rows = sensor.sample()
                return Response(rows)  # repro: noqa=F001
            """
        )
        assert [f.rule_id for f in findings] == ["F003"]
        assert findings[0].subject == "repro.pipe.app.Sensor.sample"

    def test_residual_is_itself_suppressible(self):
        source = COMMON.replace(
            "def sample(self):",
            "def sample(self):  # repro: noqa=F003",
        ) + textwrap.dedent(
            """
            def leak(sensor: Sensor):
                rows = sensor.sample()
                return Response(rows)  # repro: noqa=F001
            """
        )
        findings = analyze_flow_sources({APP_PATH: source}, model=MODEL)
        assert findings == []


class TestF004UnauditedDeny:
    def test_deny_without_audit_fires(self):
        findings = analyze(
            """
            def refuse():
                return Response.denied(("nope",))
            """
        )
        assert [f.rule_id for f in findings] == ["F004"]
        assert findings[0].subject == "repro.pipe.app.refuse"

    def test_audited_deny_is_clean(self):
        findings = analyze(
            """
            def refuse(audit: Audit):
                audit.record("deny")
                return Response.denied(("nope",))
            """
        )
        assert findings == []

    def test_enforced_deny_is_clean(self):
        findings = analyze(
            """
            def refuse(engine: Engine, request):
                decision = engine.decide(request)
                if decision:
                    return None
                return Response.denied(("nope",))
            """
        )
        assert findings == []


class TestF005BrownoutDropped:
    def test_unread_brownout_level_fires(self):
        findings = analyze(
            """
            def answer(rows, brownout_level):
                return rows
            """
        )
        assert [f.rule_id for f in findings] == ["F005"]
        assert "brownout" in findings[0].message

    def test_read_brownout_level_is_clean(self):
        findings = analyze(
            """
            def answer(rows, brownout_level):
                return rows[:brownout_level]
            """
        )
        assert findings == []


class TestF006DynamicDispatch:
    def test_dynamic_call_on_tainted_path_fires(self):
        findings = analyze(
            """
            def fanout(sensor: Sensor, callback):
                data = sensor.sample()
                callback(data)
                return data
            """
        )
        assert [f.rule_id for f in findings] == ["F006"]
        assert "callback" in findings[0].message

    def test_dynamic_call_off_the_tainted_path_is_clean(self):
        findings = analyze(
            """
            def notify(callback):
                callback("static text")
            """
        )
        assert findings == []

    def test_allowlisted_function_is_clean(self):
        import dataclasses

        model = dataclasses.replace(
            MODEL, dynamic_allowlist=("repro.pipe.app.fanout",)
        )
        findings = analyze(
            """
            def fanout(sensor: Sensor, callback):
                data = sensor.sample()
                callback(data)
                return data
            """,
            model=model,
        )
        assert findings == []

    def test_sharded_bus_call_on_tainted_path_is_not_dynamic(self):
        # Regression: a router addressing shards via PREFIX + suffix
        # used to be an unresolvable dynamic site, so any taint in the
        # router module tripped F006 on calls that in fact route to a
        # registered (enforcing) endpoint.
        findings = analyze(
            """
            SHARD_PREFIX = "shard-"

            def wire(bus):
                endpoint = Engine()
                bus.register(SHARD_PREFIX + "a", endpoint)

            def route(bus, sensor: Sensor, building_id):
                data = sensor.sample()
                return bus.call(SHARD_PREFIX + building_id, "m", data)
            """
        )
        assert findings == []

    def test_stale_allowlist_entry_is_reported(self):
        import dataclasses

        model = dataclasses.replace(
            MODEL, dynamic_allowlist=("repro.pipe.app.no_such_function",)
        )
        findings = analyze("", model=model)
        assert [f.rule_id for f in findings] == ["F006"]
        assert "stale" in findings[0].message


class TestBaseline:
    def entry(self, **overrides):
        fields = dict(
            rule_id="F001",
            file="src/repro/pipe/app.py",
            function="repro.pipe.app.leak",
            justification="reviewed: replay of enforced data",
        )
        fields.update(overrides)
        return BaselineEntry(**fields)

    def test_round_trip(self, tmp_path):
        baseline = FlowBaseline(entries=(self.entry(),))
        path = str(tmp_path / "baseline.json")
        write_baseline(baseline, path)
        assert load_baseline(path) == baseline

    def test_dumps_is_deterministic(self):
        baseline = FlowBaseline(entries=(self.entry(),))
        assert baseline.dumps() == baseline.dumps()
        assert baseline.dumps().endswith("\n")

    def test_version_gate_rejects_other_versions(self):
        data = FlowBaseline(entries=(self.entry(),)).to_dict()
        data["schema_version"] = FLOW_BASELINE_VERSION + 1
        with pytest.raises(AnalysisError, match="schema_version"):
            FlowBaseline.from_dict(data)

    def test_empty_justification_rejected(self):
        data = FlowBaseline(entries=(self.entry(justification=" "),)).to_dict()
        with pytest.raises(AnalysisError, match="justification"):
            FlowBaseline.from_dict(data)

    def test_duplicate_entries_rejected(self):
        data = FlowBaseline(entries=(self.entry(), self.entry())).to_dict()
        with pytest.raises(AnalysisError, match="duplicates"):
            FlowBaseline.from_dict(data)

    def test_apply_subtracts_matching_findings(self):
        findings = analyze(
            """
            def leak(sensor: Sensor):
                rows = sensor.sample()
                return Response(rows)
            """
        )
        baseline = baseline_from_findings(findings, justification="reviewed")
        kept, stale = apply_baseline(findings, baseline)
        assert kept == []
        assert stale == []

    def test_unused_entries_are_stale(self):
        baseline = FlowBaseline(entries=(self.entry(),))
        kept, stale = apply_baseline([], baseline)
        assert kept == []
        assert stale == list(baseline.entries)

    def test_line_numbers_do_not_affect_matching(self):
        # The same leak shifted down three lines still matches the
        # (rule, file, function) baseline key.
        body = """
            def leak(sensor: Sensor):
                rows = sensor.sample()
                return Response(rows)
            """
        baseline = baseline_from_findings(
            analyze(body), justification="reviewed"
        )
        shifted = analyze("\n\n\n" + textwrap.dedent(body))
        kept, stale = apply_baseline(shifted, baseline)
        assert kept == []
        assert stale == []


@pytest.fixture
def bypass_tree(tmp_path):
    """A tree whose leak matches the *default* model's specs."""
    sensors = tmp_path / "src" / "repro" / "sensors"
    tippers = tmp_path / "src" / "repro" / "tippers"
    sensors.mkdir(parents=True)
    tippers.mkdir(parents=True)
    (sensors / "drivers.py").write_text(textwrap.dedent(
        """
        class Probe:
            def sample(self):
                return {"who": "mary"}
        """
    ))
    (tippers / "request_manager.py").write_text(textwrap.dedent(
        """
        from repro.sensors.drivers import Probe

        class QueryResponse:
            def __init__(self, rows):
                self.rows = rows

        def leak(probe: Probe):
            return QueryResponse(probe.sample())
        """
    ))
    return str(tmp_path)


class TestCli:
    def test_main_tree_is_clean_with_committed_baseline(self, capsys):
        assert main(["lint", "--flow", "src"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_bypass_fixture_exits_one(self, capsys, bypass_tree):
        assert main(["lint", "--flow", "--no-baseline", bypass_tree]) == 1
        out = capsys.readouterr().out
        assert "F001" in out

    def test_repeated_runs_are_byte_identical(self, capsys, bypass_tree):
        main(["lint", "--flow", "--no-baseline", bypass_tree])
        first = capsys.readouterr().out
        main(["lint", "--flow", "--no-baseline", bypass_tree])
        second = capsys.readouterr().out
        assert first == second

    def test_json_format_is_pure_json(self, capsys, bypass_tree):
        assert main([
            "lint", "--flow", "--no-baseline", "--format", "json",
            bypass_tree,
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1
        assert payload["stale_baseline_entries"] == []

    def test_sarif_format_carries_the_findings(self, capsys, bypass_tree):
        assert main([
            "lint", "--flow", "--no-baseline", "--format", "sarif",
            bypass_tree,
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert any(
            result["ruleId"] == "F001" for result in run["results"]
        )

    def test_write_baseline_then_gate_passes(self, capsys, bypass_tree, tmp_path):
        baseline_path = str(tmp_path / "pinned.json")
        assert main([
            "lint", "--flow", "--select", "F001", bypass_tree,
            "--write-baseline", baseline_path,
        ]) == 0
        capsys.readouterr()
        assert main([
            "lint", "--flow", "--select", "F001", bypass_tree,
            "--baseline", baseline_path,
        ]) == 0

    def test_stale_entries_reported_on_stderr(self, capsys, tmp_path):
        baseline_path = str(tmp_path / "pinned.json")
        committed = load_baseline("flow_baseline.json")
        write_baseline(FlowBaseline(entries=committed.entries + (BaselineEntry(
            rule_id="F001",
            file="src/repro/gone.py",
            function="repro.gone.nothing",
            justification="reviewed long ago",
        ),)), baseline_path)
        assert main([
            "lint", "--flow", "src", "--baseline", baseline_path,
        ]) == 0
        err = capsys.readouterr().err
        assert "stale baseline entry" in err

    def test_baseline_flags_require_flow(self, capsys):
        assert main(["lint", "src", "--no-baseline"]) == 2
        assert "--flow" in capsys.readouterr().err

    def test_committed_baseline_justifications_are_real(self):
        baseline = load_baseline("flow_baseline.json")
        assert baseline.entries, "the committed baseline pins the WAL replay"
        for entry in baseline.entries:
            assert len(entry.justification) > 40


def test_every_datastore_read_is_a_flow_source():
    """A public datastore method that returns observations is a taint
    source, so a new or renamed read cannot escape F001."""
    from repro.storage.durable import DurableDatastore
    from repro.tippers.datastore import Datastore

    reads = []
    for cls in (Datastore, DurableDatastore):
        for name, member in vars(cls).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            if "Observation" in str(inspect.signature(member).return_annotation):
                reads.append("%s.%s.%s" % (cls.__module__, cls.__qualname__, name))
    assert {"query", "latest", "of_subject"} <= {r.rsplit(".", 1)[1] for r in reads}
    for qualname in reads:
        assert any(
            re.search(spec, qualname) for spec in DEFAULT_MODEL.source_specs
        ), qualname
