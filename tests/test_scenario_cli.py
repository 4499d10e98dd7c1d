"""The shared scenario CLI: one handler and one flag set for all five."""

import pytest

from repro.__main__ import SCENARIOS, main

#: The command line that runs each scenario at its defaults.
COMMANDS = {
    "chaos": ["chaos"],
    "recover": ["chaos", "--recover"],
    "overload": ["overload"],
    "federate": ["federate"],
    "rebalance": ["rebalance"],
}


def test_every_scenario_has_a_command():
    assert sorted(COMMANDS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_out_writes_the_report_and_trace_follows(name, tmp_path, capsys):
    path = tmp_path / "report.txt"
    assert main(COMMANDS[name] + ["--trace", "--report-out", str(path)]) == 0
    report_text, trace = capsys.readouterr().out.split("\n== fault trace ==\n")
    assert path.read_text() == report_text
    assert report_text.endswith("result: OK\n")
    assert trace.startswith("step=")


@pytest.mark.parametrize(
    "argv, plan",
    [([], "torn-storage"), (["--plan", "crashy-storage"], "crashy-storage")],
)
def test_chaos_recover_takes_its_own_default_plan(argv, plan, capsys):
    assert main(["chaos", "--recover"] + argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("recovery scenario: plan=%s " % plan)


def test_a_violated_invariant_exits_one(monkeypatch, capsys):
    from repro.simulation import chaos

    def violate(report):
        report.violations.append("injected")

    monkeypatch.setattr(chaos, "_check_invariants", violate)
    assert main(["chaos", "--population", "2", "--ticks", "1"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION: injected\nresult: FAILED\n" in out
