"""Every third-party module the package imports is a declared dependency.

A module-level import of an undeclared package breaks every entry
point that reaches it in a fresh environment, however well the test
machine is stocked.  This test reads the module-level imports of every
file under ``src/repro`` and the ``[project] dependencies`` of
``pyproject.toml``, and requires each imported top-level module that is
neither stdlib nor ``repro`` to be declared.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="sys.stdlib_module_names needs Python >= 3.10",
)


def _module_level_imports() -> Dict[str, Set[str]]:
    """Top-level module name -> files importing it at module level."""
    found: Dict[str, Set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def _declared_dependencies() -> Set[str]:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        # "name[extra]>=1.0; marker" -> the distribution name, which for
        # every current dependency is also its import name.
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def test_third_party_imports_are_declared():
    declared = _declared_dependencies()
    undeclared = {
        module: sorted(files)
        for module, files in _module_level_imports().items()
        if module != "repro"
        and module not in sys.stdlib_module_names
        and module.lower() not in declared
    }
    assert undeclared == {}, "imported but not in [project] dependencies"


def test_the_scan_sees_networkx():
    """The one current runtime dependency is found, so the scan works."""
    assert "tippers/social.py" in " ".join(_module_level_imports()["networkx"])
