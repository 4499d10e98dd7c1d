"""Unit tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "wifi_access_point" in out
        assert "total sensors: 790" in out

    def test_lint_clean_set(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1", "--population", "8"]) == 0
        out = capsys.readouterr().out
        assert "step  1" in out
        assert "after opt-out: DENIED" in out

    def test_figure1_unconcerned(self, capsys):
        assert main(["figure1", "--population", "8", "--persona", "unconcerned"]) == 0
        assert "after opt-out: ALLOWED" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRecoverCommands:
    def seed_directory(self, tmp_path):
        from repro.sensors.base import Observation
        from repro.storage import DurableDatastore, StorageEngine

        engine = StorageEngine(str(tmp_path))
        datastore = DurableDatastore(engine)
        datastore.insert(
            Observation.create(
                sensor_id="s1",
                sensor_type="temperature",
                timestamp=1.0,
                space_id="r1",
                payload={"v": 1},
            )
        )
        engine.close()

    def test_recover_replays_a_directory(self, capsys, tmp_path):
        self.seed_directory(tmp_path)
        assert main(["recover", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recovery: snapshot_lsn=0 last_lsn=1 frames_replayed=1" in out
        assert "restored: observations=1" in out

    def test_recover_json(self, capsys, tmp_path):
        import json

        self.seed_directory(tmp_path)
        assert main(["recover", "--dir", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["observations_restored"] == 1
        assert report["torn"] is False

    def test_recover_rejects_non_storage_directory(self, capsys, tmp_path):
        assert main(["recover", "--dir", str(tmp_path)]) == 2
        assert "not a storage directory" in capsys.readouterr().err

    def test_chaos_recover_scenario(self, capsys, tmp_path):
        report_path = tmp_path / "report.txt"
        assert main(
            ["chaos", "--recover", "--plan", "torn-storage", "--seed", "11",
             "--report-out", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "result: OK" in out
        assert report_path.read_text() == out

    def test_chaos_recover_json(self, capsys):
        import json

        assert main(
            ["chaos", "--recover", "--plan", "crashy-storage", "--seed", "11", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["crashed"] is True
        assert report["invariants"] == {
            "audit_prefix": True, "erasure": True, "retention": True,
        }


class TestObsCommand:
    def test_obs_prints_snapshot(self, capsys):
        assert main(["obs", "--population", "6", "--ticks", "2"]) == 0
        out = capsys.readouterr().out
        # Bus call and drop counters.
        assert "bus_calls_total" in out
        assert "bus_dropped_total" in out
        # Enforcement decisions by effect.
        assert "enforcement_decisions_total{effect=allow}" in out
        assert "enforcement_decisions_total{effect=deny}" in out
        # Compiled-table hit ratio.
        assert "enforcement table hit ratio:" in out
        assert "enforcement_table_total{result=hit}" in out
        # At least one latency histogram with percentiles.
        assert "enforcement_decide_seconds" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out
        # Span trees.
        assert "slowest traces" in out

    def test_obs_json_export(self, capsys, tmp_path):
        path = tmp_path / "snapshot.json"
        assert main(
            ["obs", "--population", "6", "--ticks", "2", "--json", str(path), "--traces", "0"]
        ) == 0
        import json

        snapshot = json.loads(path.read_text())
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "bus_attempts_total" in names
        assert "enforcement_decisions_total" in names
        assert any(
            entry["name"] == "enforcement_decide_seconds"
            for entry in snapshot["histograms"]
        )

    def test_obs_does_not_pollute_default_registry(self, capsys):
        from repro.obs import get_registry

        before = get_registry()
        assert main(["obs", "--population", "6", "--ticks", "2"]) == 0
        assert get_registry() is before
