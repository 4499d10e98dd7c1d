"""AST lint pass enforcing repo invariants the test suite cannot.

The simulation layer takes injected clocks and RNGs precisely so runs
are reproducible; one stray ``time.time()`` or unseeded ``random``
call silently breaks that property without failing any test.  These
rules pin the invariants statically, the way sanitizers shift races
and leaks from production traffic to the build:

========  ====================  ========================================
C001      wall-clock            ``time.time()`` / ``datetime.now()``
C002      unseeded-random       module-level ``random`` or ``Random()``
C003      bare-except           ``except:`` swallows everything
C004      mutable-default       list/dict/set literal as a default
C005      metric-name           metric names must be dotted.snake_case
C006      layer-import          module-level import violating the DAG
C007      unbounded-call        bus call without a deadline (clients)
C008      unused-import         module-level import never used
========  ====================  ========================================

Suppress a finding by putting ``# repro: noqa=C002`` on the flagged
line (with a justification comment -- the gate reviews them).  Only
absolute ``repro.*`` imports are layer-checked, which is the repo's
idiom; function-local imports are the sanctioned escape hatch for
wiring code (and what ``__main__`` already does), so C006 looks at
module level only.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import (
    Finding,
    Severity,
    is_suppressed,
    register_rule,
    selected,
    sort_findings,
    suppressions_in,
)

register_rule(
    "C001", "wall-clock", Severity.ERROR,
    "Reads an ambient clock (time.time, time.monotonic, datetime.now, "
    "...), directly or via an import-time alias; inject a clock or "
    "simulation timestamp instead so runs are reproducible.",
)
register_rule(
    "C002", "unseeded-random", Severity.ERROR,
    "Uses the process-global random module or an unseeded Random(); "
    "accept an injected random.Random or seed one explicitly.",
)
register_rule(
    "C003", "bare-except", Severity.ERROR,
    "A bare 'except:' also swallows KeyboardInterrupt and SystemExit; "
    "catch the narrowest exception that can actually occur.",
)
register_rule(
    "C004", "mutable-default", Severity.ERROR,
    "A mutable default argument is shared across calls; default to "
    "None (or a dataclass field factory) instead.",
)
register_rule(
    "C005", "metric-name", Severity.WARNING,
    "Metric and span names passed to repro.obs must be dotted.snake "
    "(lowercase segments of [a-z0-9_], joined by dots).",
)
register_rule(
    "C006", "layer-import", Severity.ERROR,
    "A module-level import crosses the layer DAG (e.g. core importing "
    "tippers); depend downward only or inject the collaborator.",
)
register_rule(
    "C007", "unbounded-call", Severity.WARNING,
    "A bus call in a client layer (services, iota) has no deadline=; "
    "under overload it can retry unbounded -- pass a Deadline so the "
    "admission controller and breakers can shed it predictably.",
)

register_rule(
    "C008", "unused-import", Severity.WARNING,
    "A module-level import binds a name the module never uses; delete "
    "it (or list the name in __all__ if it is re-exported).",
)

#: Layers whose bus calls C007 requires to carry a deadline.  Building
#: infrastructure (tippers, irr) answers calls; these layers originate
#: them, so they own the time budget.
_DEADLINE_LAYERS = frozenset({"services", "iota"})

#: Wall-clock call paths banned by C001 (resolved through import *and*
#: module-level assignment aliases, so ``from datetime import datetime
#: as dt; dt.now()`` and ``_now = time.time; _now()`` are both
#: caught).  ``time.monotonic`` is banned alongside ``time.time``: it
#: is still an ambient clock the simulation cannot control.
#: ``time.perf_counter`` is deliberately allowed: it measures
#: durations inside one process run, not simulated time.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: ``random`` module functions that consume the shared global RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
_METRIC_FUNCTIONS = frozenset({"timed", "span"})
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")

#: The import DAG between top-level ``repro`` packages.  A package may
#: import itself, anything listed here, and nothing else at module
#: level.  Top-level modules (``errors``, ``__main__``) are exempt.
LAYER_DAG: Dict[str, Set[str]] = {
    "errors": set(),
    "obs": set(),
    "spatial": {"errors"},
    "users": {"errors"},
    "sensors": {"errors"},
    "net": {"errors", "obs"},
    "faults": {"errors", "net", "obs"},
    "core": {"errors", "obs", "sensors", "spatial"},
    "analysis": {"core", "errors", "obs", "sensors", "spatial"},
    "tippers": {"core", "errors", "net", "obs", "sensors", "spatial", "users"},
    "irr": {"core", "errors", "net", "obs", "spatial", "tippers"},
    "iota": {"core", "errors", "net", "obs", "spatial"},
    "services": {"core", "errors", "net", "obs", "spatial", "tippers"},
    "federation": {
        "core", "errors", "irr", "net", "obs", "sensors", "spatial",
        "tippers", "users",
    },
    "simulation": {
        "analysis", "core", "errors", "faults", "federation", "iota",
        "irr", "net", "obs", "sensors", "services", "spatial",
        "tippers", "users",
    },
}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTable:
    """Maps local names to the absolute dotted path they stand for.

    Besides imports, module-level assignments that merely rebind a
    dotted path (``_now = time.time``, ``R = random.Random``) are
    followed, chaining through earlier aliases in source order -- an
    import-time alias must not launder a banned call past C001/C002.
    """

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = "%s.%s" % (node.module, alias.name)
        # Assignment aliases: module body only, in source order, so
        # chains (``t = time; now = t.time``) resolve left to right.
        for node in tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            resolved = self.resolve(_dotted(node.value))
            if resolved is not None:
                self.aliases[target.id] = resolved

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """The absolute path a local dotted reference stands for."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head)
        if base is None:
            return None
        return "%s.%s" % (base, rest) if rest else base


class CodeLinter:
    """Runs the C-rules over python sources."""

    def __init__(self, select: Optional[Set[str]] = None) -> None:
        self._select = select

    def lint_source(self, source: str, filename: str = "<string>") -> List[Finding]:
        """Findings for one module's source text.

        ``filename`` is echoed into findings and, when it contains a
        ``repro/<package>/`` component under ``src``, drives the
        layering rule.
        """
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            return [Finding(
                rule_id="C006",
                severity=Severity.ERROR,
                message="cannot parse: %s" % exc.msg,
                file=filename,
                line=exc.lineno or 0,
            )]
        imports = _ImportTable()
        imports.collect(tree)
        findings: List[Finding] = []
        findings.extend(self._check_calls(tree, imports, filename))
        findings.extend(self._check_excepts(tree, filename))
        findings.extend(self._check_defaults(tree, filename))
        findings.extend(self._check_layering(tree, filename))
        findings.extend(self._check_deadlines(tree, filename))
        findings.extend(self._check_unused_imports(tree, filename))
        suppressions = suppressions_in(source)
        kept = [
            finding
            for finding in findings
            if selected(finding, self._select)
            and not is_suppressed(finding, suppressions)
        ]
        return sort_findings(kept)

    def lint_file(self, path: str) -> List[Finding]:
        with open(path, "r", encoding="utf-8") as handle:
            return self.lint_source(handle.read(), filename=path)

    # ------------------------------------------------------------------
    # C001 / C002 / C005: call-shaped rules
    # ------------------------------------------------------------------
    def _check_calls(
        self, tree: ast.AST, imports: _ImportTable, filename: str
    ) -> List[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(_dotted(node.func))
            if resolved in _WALL_CLOCK_CALLS:
                findings.append(self._finding(
                    "C001", filename, node.lineno,
                    "%s() reads the wall clock; inject a clock instead"
                    % resolved,
                ))
            elif resolved is not None and resolved.startswith("random."):
                member = resolved[len("random."):]
                if member in _GLOBAL_RANDOM_FNS:
                    findings.append(self._finding(
                        "C002", filename, node.lineno,
                        "random.%s() uses the shared global RNG; pass a "
                        "seeded random.Random" % member,
                    ))
                elif member == "Random" and not node.args and not node.keywords:
                    findings.append(self._finding(
                        "C002", filename, node.lineno,
                        "random.Random() without a seed is "
                        "nondeterministic; seed it or inject the RNG",
                    ))
            findings.extend(self._check_metric_name(node, imports, filename))
        return findings

    def _check_metric_name(
        self, node: ast.Call, imports: _ImportTable, filename: str
    ) -> List[Finding]:
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method not in _METRIC_METHODS and method not in _METRIC_FUNCTIONS:
                return []
        elif isinstance(node.func, ast.Name):
            method = node.func.id
            if method not in _METRIC_FUNCTIONS:
                return []
            resolved = imports.resolve(method)
            if resolved is None or not resolved.startswith("repro."):
                return []
        else:
            return []
        if not node.args:
            return []
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return []
        if _METRIC_NAME_RE.match(first.value):
            return []
        return [self._finding(
            "C005", filename, node.lineno,
            "metric/span name %r is not dotted.snake_case" % first.value,
        )]

    # ------------------------------------------------------------------
    # C003: bare except
    # ------------------------------------------------------------------
    def _check_excepts(self, tree: ast.AST, filename: str) -> List[Finding]:
        return [
            self._finding(
                "C003", filename, node.lineno,
                "bare 'except:' swallows every exception",
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None
        ]

    # ------------------------------------------------------------------
    # C004: mutable defaults
    # ------------------------------------------------------------------
    def _check_defaults(self, tree: ast.AST, filename: str) -> List[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable_literal(default):
                    findings.append(self._finding(
                        "C004", filename, default.lineno,
                        "mutable default argument in %r is shared across "
                        "calls" % node.name,
                    ))
        return findings

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"list", "dict", "set"} and not node.args
        return False

    # ------------------------------------------------------------------
    # C006: layering
    # ------------------------------------------------------------------
    @staticmethod
    def _layer_of(filename: str) -> Optional[str]:
        """The repo layer a file belongs to, from its path."""
        parts = filename.replace("\\", "/").split("/")
        try:
            index = len(parts) - 1 - parts[::-1].index("repro")
        except ValueError:
            return None
        remainder = parts[index + 1:]
        if len(remainder) < 2:
            return None  # top-level module (errors.py, __main__.py)
        return remainder[0]

    def _check_layering(self, tree: ast.Module, filename: str) -> List[Finding]:
        layer = self._layer_of(filename)
        if layer not in LAYER_DAG:
            return []
        allowed = LAYER_DAG[layer] | {layer}
        findings = []
        for node in tree.body:  # module level only
            targets: List[Tuple[str, int]] = []
            if isinstance(node, ast.Import):
                targets = [(alias.name, node.lineno) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                targets = [(node.module, node.lineno)]
            for target, lineno in targets:
                parts = target.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                imported = parts[1]
                if imported in LAYER_DAG and imported not in allowed:
                    findings.append(self._finding(
                        "C006", filename, lineno,
                        "layer %r must not import %r (allowed: %s)"
                        % (layer, imported, ", ".join(sorted(allowed))),
                    ))
        return findings

    # ------------------------------------------------------------------
    # C007: bus calls without a deadline (client layers)
    # ------------------------------------------------------------------
    def _check_deadlines(self, tree: ast.AST, filename: str) -> List[Finding]:
        """Flag ``<bus>.call(...)`` without ``deadline=`` in client layers.

        The receiver is matched by name: the last dotted segment before
        ``.call`` must end with ``bus`` (``self.bus``, ``self._bus``, a
        local ``bus``), which is the repo's naming idiom for
        :class:`~repro.net.bus.MessageBus` handles.  A ``**kwargs``
        splat is given the benefit of the doubt.
        """
        if self._layer_of(filename) not in _DEADLINE_LAYERS:
            return []
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "call"):
                continue
            receiver = _dotted(func.value)
            if receiver is None:
                continue
            if not receiver.split(".")[-1].lower().endswith("bus"):
                continue
            keywords = {kw.arg for kw in node.keywords}
            if "deadline" in keywords or None in keywords:
                continue
            findings.append(self._finding(
                "C007", filename, node.lineno,
                "%s.call(...) has no deadline=; pass a Deadline so the "
                "call cannot retry unbounded under overload" % receiver,
            ))
        return findings

    # ------------------------------------------------------------------
    # C008: unused imports
    # ------------------------------------------------------------------
    def _check_unused_imports(self, tree: ast.Module, filename: str) -> List[Finding]:
        """Flag module-level imports whose bound name is never read.

        ``__init__.py`` files re-export by importing and are exempt, as
        are ``from __future__`` imports and names listed in
        ``__all__``.  A name read only inside a string annotation
        counts as used.
        """
        if filename.replace("\\", "/").split("/")[-1] == "__init__.py":
            return []
        imported: Dict[str, int] = {}
        for node in _module_level(tree.body):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imported[local] = getattr(alias, "lineno", node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = getattr(
                            alias, "lineno", node.lineno
                        )
        used = _names_read(tree)
        return [
            self._finding(
                "C008", filename, line,
                "%r is imported but never used" % name,
            )
            for name, line in imported.items()
            if name not in used
        ]

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _finding(rule_id: str, filename: str, line: int, message: str) -> Finding:
        from repro.analysis.findings import RULES

        return Finding(
            rule_id=rule_id,
            severity=RULES[rule_id].severity,
            message=message,
            file=filename,
            line=line,
        )


def _module_level(body: Sequence[ast.stmt]) -> Iterable[ast.stmt]:
    """Module-level statements, looking into ``if`` and ``try`` blocks."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for handler in node.handlers for stmt in handler.body]
            yield from _module_level(
                node.body + handlers + node.orelse + node.finalbody
            )


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module reads, the names ``__all__`` lists, and
    the names read inside string annotations."""
    used: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            used.update(
                item.value for item in node.value.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)
                )
    return used


def lint_paths(
    paths: Sequence[str],
    select: Optional[Set[str]] = None,
) -> List[Finding]:
    """Lint every ``*.py`` file under ``paths`` (files or directories)."""
    # The flow package imports this module, so its file walk is
    # imported here rather than at module level.
    from repro.analysis.flow.callgraph import collect_files

    linter = CodeLinter(select=select)
    findings: List[Finding] = []
    for filename in collect_files(paths):
        findings.extend(linter.lint_file(filename))
    return sort_findings(findings)
