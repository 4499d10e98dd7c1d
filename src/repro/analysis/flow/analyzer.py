"""Rules F001--F006: interprocedural privacy-flow analysis.

========  ====================  ========================================
F001      unenforced-flow       source-to-sink path with no enforcement
F002      unchecked-decision    enforcement result discarded/unchecked
F003      suppressed-source     sink still reachable from a suppressed
                                flow (residual warning for noqa'd F001)
F004      unaudited-deny        deny path with no audit write
F005      brownout-dropped      brownout level dropped before the sink
F006      dynamic-dispatch      unresolvable dispatch on a tainted path
========  ====================  ========================================

Taint discipline (a CFL-reachability approximation): taint propagates
*up* from a source (return values, callee to caller) zero or more
times, then *down* (arguments, caller to callee) -- never down then
back up -- and both directions stop at *sanitizing* nodes: sanitizers
themselves and functions that **directly** call one.  Direct matters:
``tick`` calling the sanitizing ``_ingest`` does not shield a second,
parallel path inside ``tick`` that skips enforcement.

Every pass iterates nodes, edges, and findings in sorted order and
consumes no wall clock or unseeded RNG, so the same tree always
produces byte-identical output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import (
    Finding,
    Severity,
    is_suppressed,
    register_rule,
    selected,
    sort_findings,
)
from repro.analysis.flow.callgraph import (
    CallGraph,
    build_call_graph,
    build_call_graph_from_sources,
)
from repro.analysis.flow.model import DEFAULT_MODEL, FlowModel

register_rule(
    "F001", "unenforced-flow", Severity.ERROR,
    "Observation data can flow from a capture/storage source to an "
    "external sink without crossing engine.decide (or an audited "
    "fail-closed deny); route the path through the enforcement engine.",
)
register_rule(
    "F002", "unchecked-decision", Severity.ERROR,
    "An enforcement decision is computed but discarded or never read; "
    "branch on decision.allowed (and use decision.granularity) before "
    "releasing data.",
)
register_rule(
    "F003", "suppressed-source", Severity.WARNING,
    "A sink stays reachable from a flow whose F001 error was "
    "suppressed with # repro: noqa; the suppression is visible here so "
    "reviews see the residual exposure at the source.",
)
register_rule(
    "F004", "unaudited-deny", Severity.ERROR,
    "A code path returns a denied response without any audit write or "
    "enforcement call in the same function; deny through the engine "
    "(or record the denial) so the audit trail stays complete.",
)
register_rule(
    "F005", "brownout-dropped", Severity.WARNING,
    "A brownout level reaches this function but is dropped before the "
    "sink; thread brownout_level through (or degrade explicitly) so "
    "overload responses stay coarsened and audit-marked.",
)
register_rule(
    "F006", "dynamic-dispatch", Severity.WARNING,
    "Unresolvable dynamic dispatch on a tainted path; the analyzer "
    "cannot prove the callee enforces. Make the target static, or add "
    "the function to the reviewed dynamic-dispatch allowlist.",
)


class FlowAnalyzer:
    """Runs the F-rules over a :class:`CallGraph`."""

    def __init__(
        self,
        model: Optional[FlowModel] = None,
        select: Optional[Set[str]] = None,
    ) -> None:
        self._model = model if model is not None else DEFAULT_MODEL
        self._select = select

    # ------------------------------------------------------------------
    # Role classification
    # ------------------------------------------------------------------
    def _classify(
        self, graph: CallGraph
    ) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
        sources: Set[str] = set()
        sinks: Set[str] = set()
        sanitizers: Set[str] = set()
        audits: Set[str] = set()
        source_pats = self._model.source_patterns()
        sink_pats = self._model.sink_patterns()
        sanitizer_pats = self._model.sanitizer_patterns()
        audit_pats = self._model.audit_patterns()
        for qualname in graph.functions:
            if any(pat.search(qualname) for pat in source_pats):
                sources.add(qualname)
            if any(pat.search(qualname) for pat in sink_pats):
                sinks.add(qualname)
            if any(pat.search(qualname) for pat in sanitizer_pats):
                sanitizers.add(qualname)
            if any(pat.search(qualname) for pat in audit_pats):
                audits.add(qualname)
        return sources, sinks, sanitizers, audits

    def _excluded(self, graph: CallGraph, qualname: str) -> bool:
        node = graph.functions.get(qualname)
        return node is None or self._model.excludes(node.module)

    def _wrappers(self, graph: CallGraph, sanitizers: Set[str]) -> Set[str]:
        """Functions that directly call a sanitizer."""
        wrappers: Set[str] = set()
        for caller in graph.sites:
            for site in graph.sites[caller]:
                if set(site.candidates) & sanitizers:
                    wrappers.add(caller)
                    break
        return wrappers

    # ------------------------------------------------------------------
    # Taint propagation
    # ------------------------------------------------------------------
    def _propagate(
        self,
        graph: CallGraph,
        sources: Set[str],
        sinks: Set[str],
        blocked: Set[str],
    ) -> Dict[str, Tuple[str, ...]]:
        """Tainted qualname -> witness path back to a source.

        Up-closure first (return values flowing to callers), then
        down-closure (tainted data passed into callees); both stop at
        blocked (sanitizing) nodes.  BFS over sorted frontiers with
        first-writer-wins parents keeps paths deterministic.
        """
        paths: Dict[str, Tuple[str, ...]] = {}
        frontier = sorted(
            s for s in sources if not self._excluded(graph, s)
        )
        for source in frontier:
            paths[source] = (source,)
        # Upward: callee -> caller.
        while frontier:
            next_frontier: List[str] = []
            for current in frontier:
                for caller in graph.callers_of(current):
                    if caller in paths or caller in blocked:
                        continue
                    if self._excluded(graph, caller):
                        continue
                    paths[caller] = paths[current] + (caller,)
                    next_frontier.append(caller)
            frontier = sorted(next_frontier)
        # Downward: caller -> callee, from every node tainted so far.
        frontier = sorted(paths)
        while frontier:
            next_frontier = []
            for current in frontier:
                for site in graph.sites_of(current):
                    for callee in site.candidates:
                        if callee in paths or callee in blocked:
                            continue
                        if callee in sinks or callee in sources:
                            continue
                        if self._excluded(graph, callee):
                            continue
                        paths[callee] = paths[current] + (callee,)
                        next_frontier.append(callee)
            frontier = sorted(next_frontier)
        return paths

    # ------------------------------------------------------------------
    # The rules
    # ------------------------------------------------------------------
    def analyze(self, graph: CallGraph) -> List[Finding]:
        """All findings after suppression and selection filtering."""
        sources, sinks, sanitizers, audits = self._classify(graph)
        wrappers = self._wrappers(graph, sanitizers)
        blocked = sanitizers | wrappers
        tainted = self._propagate(graph, sources, sinks, blocked)

        findings: List[Finding] = []
        findings.extend(
            self._check_f001_f003(graph, tainted, sources, sinks)
        )
        findings.extend(self._check_f002(graph, sanitizers))
        findings.extend(self._check_f004(graph, sinks, sanitizers, audits))
        findings.extend(self._check_f005(graph))
        findings.extend(self._check_f006(graph, tainted))
        kept = [
            finding for finding in findings
            if selected(finding, self._select)
        ]
        return sort_findings(kept)

    def _suppressed(self, graph: CallGraph, finding: Finding) -> bool:
        table = graph.suppressions.get(finding.file, {})
        return is_suppressed(finding, table)

    def _check_f001_f003(
        self,
        graph: CallGraph,
        tainted: Dict[str, Tuple[str, ...]],
        sources: Set[str],
        sinks: Set[str],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for qualname in sorted(tainted):
            if qualname in sinks:
                continue
            node = graph.functions[qualname]
            for site in graph.sites_of(qualname):
                hit = sorted(set(site.candidates) & sinks)
                if not hit:
                    continue
                path = tainted[qualname]
                finding = Finding(
                    rule_id="F001",
                    severity=Severity.ERROR,
                    message=(
                        "observation data reaches sink %s with no "
                        "enforcement call on the path %s"
                        % (hit[0], " -> ".join(path))
                    ),
                    subject=qualname,
                    file=node.file,
                    line=site.line,
                )
                if not self._suppressed(graph, finding):
                    findings.append(finding)
                    continue
                # F003: the error is suppressed, but the exposure is
                # real; surface a residual warning at the source.
                source = graph.functions.get(path[0])
                if source is None:
                    continue
                residual = Finding(
                    rule_id="F003",
                    severity=Severity.WARNING,
                    message=(
                        "sink %s is still reachable from this source; "
                        "the F001 error was suppressed at %s:%d"
                        % (hit[0], node.file, site.line)
                    ),
                    subject=source.qualname,
                    file=source.file,
                    line=source.lineno,
                )
                if not self._suppressed(graph, residual):
                    findings.append(residual)
        return findings

    def _check_f002(
        self, graph: CallGraph, sanitizers: Set[str]
    ) -> List[Finding]:
        """Decision-returning sanitizer calls whose result is unread."""
        findings: List[Finding] = []
        for qualname in sorted(graph.sites):
            if self._excluded(graph, qualname):
                continue
            node = graph.functions[qualname]
            for site in graph.sites_of(qualname):
                if not (set(site.candidates) & sanitizers):
                    continue
                if site.attr not in ("decide", "decide_key", "enforce_observation"):
                    continue
                if site.usage == "used":
                    continue
                how = (
                    "discarded" if site.usage == "discarded"
                    else "assigned but never read"
                )
                finding = Finding(
                    rule_id="F002",
                    severity=Severity.ERROR,
                    message=(
                        "the %s() decision is %s; check .allowed and "
                        "apply .granularity before releasing data"
                        % (site.attr, how)
                    ),
                    subject=qualname,
                    file=node.file,
                    line=site.line,
                )
                if not self._suppressed(graph, finding):
                    findings.append(finding)
        return findings

    def _check_f004(
        self,
        graph: CallGraph,
        sinks: Set[str],
        sanitizers: Set[str],
        audits: Set[str],
    ) -> List[Finding]:
        """Denial construction in functions with no audit anywhere."""
        deny_names = {"denied"}
        findings: List[Finding] = []
        for qualname in sorted(graph.sites):
            if self._excluded(graph, qualname):
                continue
            node = graph.functions[qualname]
            if qualname in sinks or node.is_class:
                continue
            site_list = graph.sites_of(qualname)
            protected = any(
                set(site.candidates) & (sanitizers | audits)
                for site in site_list
            )
            if protected:
                continue
            for site in site_list:
                if site.attr not in deny_names:
                    continue
                if not any(
                    candidate.split(".")[-1] in deny_names
                    and candidate in sinks
                    for candidate in site.candidates
                ):
                    continue
                finding = Finding(
                    rule_id="F004",
                    severity=Severity.ERROR,
                    message=(
                        "denied response built with no audit write or "
                        "enforcement call in %s; record the denial so "
                        "the audit trail stays complete" % node.name
                    ),
                    subject=qualname,
                    file=node.file,
                    line=site.line,
                )
                if not self._suppressed(graph, finding):
                    findings.append(finding)
        return findings

    def _check_f005(self, graph: CallGraph) -> List[Finding]:
        """brownout_level parameters the function body never reads."""
        findings: List[Finding] = []
        for qualname in sorted(graph.unread_params):
            if self._excluded(graph, qualname):
                continue
            node = graph.functions[qualname]
            for name, line in graph.unread_params[qualname]:
                finding = Finding(
                    rule_id="F005",
                    severity=Severity.WARNING,
                    message=(
                        "parameter %r is accepted but never read; the "
                        "brownout degradation is silently dropped" % name
                    ),
                    subject=qualname,
                    file=node.file,
                    line=line,
                )
                if not self._suppressed(graph, finding):
                    findings.append(finding)
        return findings

    def _check_f006(
        self, graph: CallGraph, tainted: Dict[str, Tuple[str, ...]]
    ) -> List[Finding]:
        """Dynamic dispatch on tainted paths + stale allowlist entries."""
        allowlist = set(self._model.dynamic_allowlist)
        used: Set[str] = set()
        has_dynamic: Set[str] = set()
        findings: List[Finding] = []
        for qualname in sorted(graph.sites):
            for site in graph.sites_of(qualname):
                if not site.dynamic:
                    continue
                has_dynamic.add(qualname)
                if qualname not in tainted:
                    continue
                if qualname in allowlist:
                    used.add(qualname)
                    continue
                node = graph.functions[qualname]
                finding = Finding(
                    rule_id="F006",
                    severity=Severity.WARNING,
                    message=(
                        "%s on a tainted path; the callee cannot be "
                        "proven to enforce" % site.reason
                    ),
                    subject=qualname,
                    file=node.file,
                    line=site.line,
                )
                if not self._suppressed(graph, finding):
                    findings.append(finding)
        for entry in sorted(allowlist):
            if entry not in has_dynamic:
                findings.append(Finding(
                    rule_id="F006",
                    severity=Severity.WARNING,
                    message=(
                        "stale dynamic-dispatch allowlist entry: %r "
                        "contains no dynamic call site; remove it from "
                        "the model's allowlist" % entry
                    ),
                    subject=entry,
                    file="",
                    line=0,
                ))
        return findings


def analyze_flow_paths(
    paths: Sequence[str],
    select: Optional[Set[str]] = None,
    model: Optional[FlowModel] = None,
) -> List[Finding]:
    """Build the call graph under ``paths`` and run every F-rule."""
    resolved = model if model is not None else DEFAULT_MODEL
    graph = build_call_graph(paths, resolved)
    return FlowAnalyzer(model=resolved, select=select).analyze(graph)


def analyze_flow_sources(
    sources: Dict[str, str],
    select: Optional[Set[str]] = None,
    model: Optional[FlowModel] = None,
) -> List[Finding]:
    """Testing hook: analyze in-memory ``{path: source}`` modules."""
    resolved = model if model is not None else DEFAULT_MODEL
    graph = build_call_graph_from_sources(sources, resolved)
    return FlowAnalyzer(model=resolved, select=select).analyze(graph)
