"""Golden reports: the exact stdout of every pinned scenario invocation.

Each file under ``tests/golden/`` is what ``python -m repro <argv>``
prints for one fault scenario at its pinned seed, so any change to a
report -- a counter, a line's order, a JSON key -- fails here byte for
byte.  After a *deliberate* report change,
regenerate the affected file by redirecting the same command into it,
for example::

    PYTHONPATH=src python -m repro federate --plan campus-storm --seed 17 \\
        > tests/golden/federate-campus-storm.txt

and review the diff before committing it.
"""

import pathlib

import pytest

from repro.__main__ import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: golden file -> the ``python -m repro`` arguments that print it.
INVOCATIONS = {
    "chaos-monkey-trace.txt": "chaos --plan monkey --seed 11 --trace",
    "chaos-monkey.json": "chaos --plan monkey --seed 11 --json",
    "recover-torn-storage.txt": "chaos --recover --plan torn-storage --seed 11",
    "recover-crashy-storage.txt":
        "chaos --recover --plan crashy-storage --seed 11",
    "recover-torn-storage.json":
        "chaos --recover --plan torn-storage --seed 11 --json",
    "overload-rush-hour-trace.txt":
        "overload --plan rush-hour --seed 11 --trace",
    "overload-no-admission.txt": "overload --no-admission --seed 11",
    "overload-rush-hour.json": "overload --plan rush-hour --seed 11 --json",
    "federate-campus-storm.txt": "federate --plan campus-storm --seed 17",
    "federate-campus-storm.json":
        "federate --plan campus-storm --seed 17 --json",
    "rebalance-ring-change.txt": "rebalance --plan ring-change --seed 23",
    "rebalance-ring-change.json":
        "rebalance --plan ring-change --seed 23 --json",
}


def test_every_golden_file_has_an_invocation():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_golden(name, capsys):
    assert main(INVOCATIONS[name].split()) == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
