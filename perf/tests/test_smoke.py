"""Short end-to-end runs of every workload, and the failure paths."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perf import run

RUN = os.path.join(run.ROOT, "perf", "run.py")
SPEC = run.load_spec()


def _run(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--seconds", "0.5", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("traced", [0, 1], ids=["e2e", "trace"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(workload, traced, tmp_path):
    done = _run("--workload", workload, "--trace", str(traced), "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
    if traced:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    [written] = list(tmp_path.iterdir())
    record = json.loads(written.read_text())
    assert record["workload"] == workload
    if not traced:
        for tail in ("latency_p90_us", "latency_p99_us"):
            assert math.isfinite(record["detail"][tail])
    assert not [name for name in os.listdir(run.ROOT) if name.startswith(".perf-")]


def test_a_wrong_answer_fails_the_query_run(monkeypatch, tmp_path):
    from repro.tippers.bms import TIPPERS

    handle = TIPPERS.handle
    first = []

    def flipped(self, method, payload):
        # Only the instance on the bus answers wrongly; the oracle
        # instance the check builds afterwards answers truly.
        answer = handle(self, method, payload)
        if not first:
            first.append(self)
        if self is first[0]:
            answer = dict(answer, allowed=not answer["allowed"])
        return answer

    monkeypatch.setattr(TIPPERS, "handle", flipped)
    args = ["--child", "--workload", "query", "--seconds", "0.3", "--out", str(tmp_path)]
    assert run.main(args) == 1


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--seconds", "0"]])
def test_bad_usage_exits_2(argv):
    with pytest.raises(SystemExit) as exit_info:
        run.main(argv)
    assert exit_info.value.code == 2


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "query", "--seconds", "0.5"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout.strip() == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perf"]
