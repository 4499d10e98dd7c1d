"""Keep the documentation honest: its JSON examples must validate."""

import json
import pathlib
import re

import pytest

from repro.core.language.document import (
    ResourcePolicyDocument,
    ServicePolicyDocument,
    SettingsDocument,
)
from repro.core.policy.serialization import preference_from_dict

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "POLICY_LANGUAGE.md"


@pytest.fixture(scope="module")
def json_blocks():
    text = DOCS.read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert blocks, "the language doc must contain JSON examples"
    return [json.loads(block) for block in blocks]


class TestLanguageDocExamples:
    def test_block_count(self, json_blocks):
        assert len(json_blocks) == 4

    def test_resource_example_parses(self, json_blocks):
        document = ResourcePolicyDocument.from_dict(json_blocks[0])
        assert document.resources[0].name == "Location tracking in DBH"
        assert document.resources[0].retention.isoformat() == "P6M"

    def test_service_example_parses(self, json_blocks):
        document = ServicePolicyDocument.from_dict(json_blocks[1])
        assert document.service_id == "Concierge"
        assert not document.third_party

    def test_settings_example_parses(self, json_blocks):
        document = SettingsDocument.from_dict(json_blocks[2])
        assert document.names == ["location"]
        assert [opt.key for opt in document.groups[0]] == ["fine", "coarse", "off"]

    def test_preference_example_parses(self, json_blocks):
        preference = preference_from_dict(json_blocks[3])
        assert preference.user_id == "mary"
        assert preference.condition.time_sensitive


class TestResilienceDocExamples:
    """docs/RESILIENCE.md's fault-plan example must stay loadable."""

    @pytest.fixture(scope="class")
    def plan_blocks(self):
        text = (DOCS.parent / "RESILIENCE.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", text, re.S)
        assert blocks, "the resilience doc must contain a fault-plan example"
        return [json.loads(block) for block in blocks]

    def test_fault_plan_example_parses(self, plan_blocks):
        from repro.faults import FaultKind, FaultPlan

        plan = FaultPlan.from_dict(plan_blocks[0])
        assert plan.name == "example-outage"
        assert plan.seed == 7
        kinds = {spec.kind for spec in plan.specs}
        assert FaultKind.CRASH in kinds
        assert FaultKind.POLICY_FETCH_FAIL in kinds

    def test_documented_defaults_match_the_code(self):
        from repro.net.resilience import (
            COOLDOWN_REJECTIONS,
            FAILURE_THRESHOLD,
            RetryPolicy,
        )

        text = (DOCS.parent / "RESILIENCE.md").read_text()
        policy = RetryPolicy()
        assert "`max_retries` | %d" % policy.max_retries in text
        assert "`base_delay_s` | %g" % policy.base_delay_s in text
        assert "`max_delay_s` | %g" % policy.max_delay_s in text
        assert "`failure_threshold = %d`" % FAILURE_THRESHOLD in text
        assert "`cooldown_rejections = %d`" % COOLDOWN_REJECTIONS in text

    def test_trace_line_example_matches_format(self):
        from repro.faults import FaultKind, FaultTrace

        text = (DOCS.parent / "RESILIENCE.md").read_text()
        trace = FaultTrace()
        event = trace.record(42, "bus", FaultKind.DROP, "irr-1", "method=discover")
        assert event.line() in text

    def test_documented_overload_defaults_match_the_code(self):
        from repro.net.admission import (
            HIGH_WATERMARK,
            MAX_BROWNOUT_LEVELS,
            SHED_WATERMARK,
            AdmissionController,
        )
        from repro.tippers.sensor_manager import SensorHealthSupervisor

        text = (DOCS.parent / "RESILIENCE.md").read_text()
        controller = AdmissionController()
        assert "capacity `%d`" % controller.queue_capacity in text
        assert "**high watermark**\n(`%g`)" % HIGH_WATERMARK in text
        assert "**shed watermark** (`%g`)" % SHED_WATERMARK in text
        assert "deepest brownout\n(`%d` lattice steps)" % MAX_BROWNOUT_LEVELS in text
        assert (
            "capacity `%g`, refill `%g`/step"
            % (controller.principal_capacity,
               controller.principal_refill_per_step)
            in text
        )
        supervisor = SensorHealthSupervisor()
        assert "miss threshold `%d`" % supervisor.miss_threshold in text
        assert "probe rate\n`%g`" % supervisor.probe_rate in text

    def test_documented_priority_classes_match_the_code(self):
        from repro.net.admission import DEFAULT_METHOD_PRIORITIES, Priority

        text = (DOCS.parent / "RESILIENCE.md").read_text()
        table_rows = [
            line for line in text.splitlines()
            if line.startswith("| `CRITICAL`")
            or line.startswith("| `NORMAL`")
            or line.startswith("| `DEFERRABLE`")
        ]
        assert len(table_rows) == 3
        for row in table_rows:
            priority = Priority[row.split("`")[1]]
            for method in re.findall(r"`([a-z_]+)`", row.split("|")[2]):
                assert DEFAULT_METHOD_PRIORITIES[method] is priority, (
                    "doc lists %r as %s but the code says %s"
                    % (method, priority, DEFAULT_METHOD_PRIORITIES[method])
                )


class TestStorageDocExamples:
    """docs/STORAGE.md's worked examples must stay true to the code."""

    @pytest.fixture(scope="class")
    def storage_text(self):
        return (DOCS.parent / "STORAGE.md").read_text()

    def test_frame_encoding_example_runs(self, storage_text):
        blocks = re.findall(r"```python\n(.*?)```", storage_text, re.S)
        assert blocks, "the storage doc must contain the worked frame example"
        for block in blocks:
            exec(compile(block, "<STORAGE.md example>", "exec"), {})

    def test_manifest_example_is_loadable(self, storage_text, tmp_path):
        from repro.storage.snapshot import manifest_path, read_manifest

        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", storage_text, re.S)]
        assert blocks, "the storage doc must show a MANIFEST.json example"
        with open(manifest_path(str(tmp_path)), "w") as handle:
            json.dump(blocks[0], handle)
        assert read_manifest(str(tmp_path)).snapshot_lsn == blocks[0]["snapshot_lsn"]

    def test_documented_constants_match_the_code(self, storage_text):
        from repro.storage.wal import (
            DEFAULT_SEGMENT_BYTES,
            FRAME_HEADER,
            SEGMENT_MAGIC,
        )

        assert "`%s`" % SEGMENT_MAGIC.decode() in storage_text
        assert "DEFAULT_SEGMENT_BYTES = %d" % DEFAULT_SEGMENT_BYTES in storage_text
        assert FRAME_HEADER.size == 16  # the documented frame-header table

    def test_documented_record_types_match_the_code(self, storage_text):
        from repro.storage.records import RECORD_TYPES

        match = re.search(r"Types: ((?:`\w+`,?\s*)+)\.", storage_text)
        assert match, "the storage doc must list the record types"
        assert tuple(re.findall(r"`(\w+)`", match.group(1))) == RECORD_TYPES

    def test_documented_field_orders_match_the_code(self, storage_text):
        from repro.storage.records import FIELDS

        rows = re.findall(r"^\| `(\w+)` \| (`.*`) \|$", storage_text, re.M)
        documented = {
            record_type: tuple(re.findall(r"`(\w+)`", fields))
            for record_type, fields in rows
        }
        assert documented == FIELDS

    def test_documented_metrics_exist(self, storage_text):
        import pathlib

        durable = pathlib.Path(DOCS.parent.parent / "src/repro/storage/durable.py")
        source = durable.read_text()
        for metric in (
            "storage_wal_appends_total",
            "storage_wal_bytes_total",
            "storage_wal_segments_sealed_total",
            "storage_compactions_total",
        ):
            assert metric in storage_text
            assert metric in source


class TestAnalysisDocExamples:
    """docs/ANALYSIS.md's flow-baseline example must stay loadable."""

    @pytest.fixture(scope="class")
    def analysis_text(self):
        return (DOCS.parent / "ANALYSIS.md").read_text()

    def test_baseline_example_parses(self, analysis_text):
        from repro.analysis.flow import FLOW_BASELINE_VERSION, FlowBaseline

        # Some of the doc's json blocks are annotated with // comments
        # for the reader; only strictly-parseable blocks are candidates.
        candidates = []
        for block in re.findall(r"```json\n(.*?)```", analysis_text, re.S):
            try:
                candidates.append(json.loads(block))
            except ValueError:
                continue
        examples = [
            block for block in candidates
            if isinstance(block, dict) and "schema_version" in block
        ]
        assert examples, "the analysis doc must show a flow-baseline example"
        baseline = FlowBaseline.from_dict(examples[0])
        assert examples[0]["schema_version"] == FLOW_BASELINE_VERSION
        assert baseline.entries
        assert baseline.entries[0].rule_id == "F001"
        assert baseline.entries[0].justification.strip()

    def test_every_flow_rule_documented(self, analysis_text):
        for rule_id in ("F001", "F002", "F003", "F004", "F005", "F006"):
            assert "### %s" % rule_id in analysis_text, (
                "flow rule %s needs its own section" % rule_id
            )

    def test_every_policy_rule_documented(self, analysis_text):
        from repro.analysis.findings import all_rules

        policy_rules = [r.rule_id for r in all_rules() if r.rule_id.startswith("P")]
        assert policy_rules
        for rule_id in policy_rules:
            assert "### %s" % rule_id in analysis_text, (
                "policy rule %s needs its own section" % rule_id
            )

    def test_makefile_wires_lint_flow(self):
        makefile = (DOCS.parent.parent / "Makefile").read_text()
        assert "lint-flow:" in makefile
        assert "lint --flow" in makefile

    def test_readme_mentions_flow_verification(self):
        readme = (DOCS.parent.parent / "README.md").read_text()
        assert "--flow" in readme
        assert "flow_baseline.json" in readme


class TestReadmeQuickstart:
    def test_quickstart_code_runs(self):
        """The README's quickstart snippet must execute as written."""
        readme = (DOCS.parent.parent / "README.md").read_text()
        match = re.search(r"```python\n(.*?)```", readme, re.S)
        assert match, "README must contain the quickstart snippet"
        exec(compile(match.group(1), "<README quickstart>", "exec"), {})


class TestBenchmarksDoc:
    """docs/BENCHMARKS.md's example record and tables must stay true."""

    @pytest.fixture(scope="class")
    def bench_text(self):
        return (DOCS.parent / "BENCHMARKS.md").read_text()

    def test_example_record_validates(self, bench_text):
        from repro.bench import BenchmarkEntry, BenchRecord

        blocks = [
            json.loads(b)
            for b in re.findall(r"```json\n(.*?)```", bench_text, re.S)
        ]
        assert blocks, "the benchmarks doc must show an example record"
        example = blocks[0]
        # The doc trims the record to one benchmark for readability;
        # validate the shown entry through the real schema, then the
        # whole record with the entry replicated across the suite.
        from repro.bench import BENCHMARK_NAMES

        shown = example["benchmarks"]["scale_enforcement"]
        BenchmarkEntry.from_dict(shown, "scale_enforcement")
        example["benchmarks"] = {
            name: dict(shown, name=name) for name in BENCHMARK_NAMES
        }
        record = BenchRecord.from_dict(example)
        assert record.scale == "ci"

    def test_documented_schema_version_matches(self, bench_text):
        from repro.bench import BENCH_SCHEMA_VERSION

        assert "## Record schema (version %d)" % BENCH_SCHEMA_VERSION in bench_text

    def test_documented_tolerances_match_defaults(self, bench_text):
        from repro.bench.compare import (
            COMPILED_SPEEDUP_FLOOR,
            RSS_BOUND,
            SPREAD_FACTOR,
        )
        from repro.bench.workloads import REPEATS

        assert "`SPREAD_FACTOR` %.1f |" % SPREAD_FACTOR in bench_text
        assert "bound %d%%" % round(100 * RSS_BOUND) in bench_text
        assert "floor %.1fx |" % COMPILED_SPEEDUP_FLOOR in bench_text
        assert "`REPEATS` = %d rounds" % REPEATS in bench_text
        for gone in ("Tolerances", "--latency-tolerance",
                     "--throughput-tolerance", "--rate-slack"):
            assert gone not in bench_text

    def test_documented_scales_exist(self, bench_text):
        from repro.bench import SCALES

        for name in SCALES:
            assert "`%s`" % name in bench_text

    def test_committed_trajectory_validates(self):
        from repro.bench import latest_record, list_records

        root = str(DOCS.parent.parent)
        records = list_records(root)
        assert records, "the repo must commit at least BENCH_0001.json"
        assert records[0][0] == 1
        baseline = latest_record(root)
        baseline.validate()
        for entry in baseline.benchmarks.values():
            assert entry.timed["us_per_op"].median > 0

    def test_makefile_wires_bench(self):
        makefile = (DOCS.parent.parent / "Makefile").read_text()
        assert "bench:" in makefile
        assert "repro bench" in makefile

    def test_readme_mentions_the_trajectory(self):
        readme = (DOCS.parent.parent / "README.md").read_text()
        assert "BENCH_" in readme
        assert "perf trajectory" in readme.lower()


class TestFederationDoc:
    """docs/FEDERATION.md must stay true to the federation code."""

    @pytest.fixture(scope="class")
    def federation_text(self):
        return (DOCS.parent / "FEDERATION.md").read_text()

    def test_worked_example_runs(self, federation_text):
        blocks = re.findall(r"```python\n(.*?)```", federation_text, re.S)
        assert blocks, "the federation doc must contain the roaming example"
        for block in blocks:
            exec(compile(block, "<FEDERATION.md example>", "exec"), {})

    def test_endpoint_prefixes_match_the_code(self, federation_text):
        from repro.federation import (
            REGISTRY_ENDPOINT_PREFIX,
            SHARD_ENDPOINT_PREFIX,
        )

        # The doc spells the concrete endpoint names for building "b".
        assert "`%sb`" % SHARD_ENDPOINT_PREFIX in federation_text
        assert "`%sb`" % REGISTRY_ENDPOINT_PREFIX in federation_text

    def test_documented_vnode_default_matches(self, federation_text):
        from repro.federation.ring import DEFAULT_VNODES

        assert "(default %d)" % DEFAULT_VNODES in federation_text

    def test_roaming_and_dsar_methods_are_critical(self):
        from repro.net.admission import DEFAULT_METHOD_PRIORITIES, Priority

        for method in ("register_roaming", "dsar_report", "dsar_erase"):
            assert DEFAULT_METHOD_PRIORITIES[method] is Priority.CRITICAL

    def test_cli_and_makefile_are_wired(self, federation_text):
        assert "python -m repro federate" in federation_text
        makefile = (DOCS.parent.parent / "Makefile").read_text()
        assert "scenarios:" in makefile
        assert "tests/test_federate_scenario.py" in makefile
        readme = (DOCS.parent.parent / "README.md").read_text()
        assert "docs/FEDERATION.md" in readme
        assert "python -m repro federate" in readme

    def test_migration_methods_are_critical(self, federation_text):
        from repro.net.admission import DEFAULT_METHOD_PRIORITIES, Priority

        for method in (
            "migrate_export", "migrate_import", "migrate_finalize",
        ):
            assert DEFAULT_METHOD_PRIORITIES[method] is Priority.CRITICAL
            assert "`%s`" % method in federation_text

    def test_rebalance_cli_and_makefile_are_wired(self, federation_text):
        assert "python -m repro rebalance" in federation_text
        assert "migrating:<from>:<to>" in federation_text
        makefile = (DOCS.parent.parent / "Makefile").read_text()
        assert "tests/test_rebalance_scenario.py" in makefile
        readme = (DOCS.parent.parent / "README.md").read_text()
        assert "python -m repro rebalance" in readme
