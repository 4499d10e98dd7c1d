"""Static analysis: policy lint, AST code lint, and privacy-flow lint.

Three analyzers share one finding/severity/reporting core
(:mod:`repro.analysis.findings`):

- :class:`PolicyLinter` audits whole advertisement registries and
  policy documents statically (rules ``P001``--``P014``).
- :class:`CodeLinter` runs stdlib-``ast`` rules over the codebase
  itself (rules ``C001``--``C007``).
- :class:`~repro.analysis.flow.FlowAnalyzer` runs the interprocedural
  privacy-flow rules (``F001``--``F006``) over a module-level call
  graph, proving that no observation path bypasses enforcement (see
  :mod:`repro.analysis.flow`).

All three are exposed through ``python -m repro lint``.
"""

from repro.analysis.code_lint import CodeLinter, lint_paths
from repro.analysis.findings import (
    Finding,
    Rule,
    Severity,
    all_rules,
    expand_selection,
    exit_code,
    render_json,
    render_text,
    sort_findings,
)
from repro.analysis.flow import (
    FlowAnalyzer,
    FlowBaseline,
    analyze_flow_paths,
    apply_baseline,
    baseline_from_findings,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.analysis.policy_lint import (
    PURPOSE_MAX_RETENTION,
    PolicyLinter,
    lint_dbh_scenario,
)

__all__ = [
    "CodeLinter",
    "Finding",
    "FlowAnalyzer",
    "FlowBaseline",
    "PolicyLinter",
    "PURPOSE_MAX_RETENTION",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_flow_paths",
    "apply_baseline",
    "baseline_from_findings",
    "exit_code",
    "expand_selection",
    "lint_dbh_scenario",
    "lint_paths",
    "load_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "sort_findings",
    "write_baseline",
]
