"""Smoke tests: every example script must run and print its story.

Each example is executed in a subprocess (so import side effects and
``__main__`` guards behave exactly as for a user) and checked for the
key line that proves its scenario played out.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", "after opt-out: False"),
    ("figure1_walkthrough.py", "DENIED"),
    ("personalized_assistant.py", "fundamentalist"),
    ("inference_attack.py", "de-identified"),
    ("smart_services.py", "DELIVERED"),
    ("building_admin_toolkit.py", "shadowed-rule"),
]


@pytest.mark.parametrize("script,marker", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, marker):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert marker in result.stdout
