"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
figure1 [--population N] [--persona NAME]
    Run the paper's Figure-1 interaction end to end and print the
    per-step report.
lint [paths...] [--format text|json|sarif] [--select RULES] [--flow]
    With no paths: statically audit the default DBH policy set and its
    advertisement registry (the resource advertisement, the Figure-4
    settings document and the concierge service advertisement) under
    policy rules P001-P014, with the DBH deployment's sensor types.
    With paths: run the AST code lint (rules C001-C008) over every
    ``*.py`` file under them.  With ``--flow``: run the interprocedural privacy-flow
    analysis (rules F001-F006) over the paths (default ``src``),
    subtracting the committed ``flow_baseline.json`` unless
    ``--no-baseline`` (or ``--baseline PATH`` picks another file);
    ``--write-baseline PATH`` pins the current findings instead of
    reporting them.  Exits 0 when clean, 1 on findings, 2 on usage
    errors.
inventory
    Print the synthetic Donald Bren Hall inventory.
obs [--population N] [--ticks N] [--json PATH] [--traces N]
    Run the Figure-1 interaction against a fresh metrics registry and
    print the observability snapshot (counters, latency histograms with
    p50/p95/p99, table hit ratio, span trees).
chaos|overload|federate|rebalance [--plan NAME|list] [--seed N] [--population N]
        [--ticks N] [--json] [--trace] [--report-out PATH] [--list]
    The fault scenarios, one handler driven by ``SCENARIOS``: run a
    seeded workload under a named fault plan, print the report (and the
    fault trace with ``--trace``), and exit 0 when every invariant
    holds, 1 on a violation, 2 on an unknown plan or bad campus.
    ``chaos`` is the compact pipeline and ``chaos --recover`` its
    crash-recovery twin; ``overload`` is admission control and
    brownout (``--no-admission``: the ablation); ``federate`` (roaming,
    shard crash, campus DSAR) and ``rebalance`` (ring join + drain under
    faults) take ``--buildings CSV`` and ``--dir PATH``.
recover --dir PATH [--json]
    Replay an existing storage directory (snapshot + WAL) and print the
    recovery report without mutating it.
bench run|record|compare
    The recorded perf trajectory.  ``run`` executes the scale suite and
    prints (or writes) a schema-validated record; ``record`` appends it
    as the next ``BENCH_<n>.json`` on the trajectory; ``compare`` gates
    a fresh run (or a given candidate file) against the last committed
    record (or ``--baseline``): timed medians within the two records'
    own measured spread, counts exactly -- exit 0 on pass, 1 on
    regression, 2 when no baseline/usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.simulation.scenario import run_figure1_scenario

    report = run_figure1_scenario(
        population=args.population, mary_persona=args.persona
    )
    for step in report.steps:
        print("step %2d | %-48s %7.3fs" % (step.step, step.title, step.elapsed_s))
        print("        |   %s" % step.detail)
    print("before opt-out: %s | after opt-out: %s" % (
        "ALLOWED" if report.location_allowed_before_optout else "DENIED",
        "ALLOWED" if report.location_allowed_after_optout else "DENIED",
    ))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import (
        exit_code,
        expand_selection,
        lint_dbh_scenario,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
    )
    from repro.errors import AnalysisError

    if args.flow:
        return _cmd_lint_flow(args)
    if args.baseline or args.no_baseline or args.write_baseline:
        print("error: baseline options require --flow", file=sys.stderr)
        return 2

    try:
        selection = expand_selection(args.select)
        if args.paths:
            findings = lint_paths(args.paths, select=selection)
        else:
            findings = lint_dbh_scenario(select=selection)
    except AnalysisError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(render_json(findings), indent=2, sort_keys=True))
        return exit_code(findings)
    if args.format == "sarif":
        print(json.dumps(render_sarif(findings), indent=2, sort_keys=True))
        return exit_code(findings)

    if not args.paths and not findings:
        print("policy set is clean")
        return 0

    for line in render_text(findings):
        print(line)
    if not findings:
        print("no findings")
    return exit_code(findings)


def _cmd_lint_flow(args: argparse.Namespace) -> int:
    """``lint --flow``: the interprocedural privacy-flow analysis."""
    import json
    import os

    from repro.analysis import (
        analyze_flow_paths,
        apply_baseline,
        baseline_from_findings,
        exit_code,
        expand_selection,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )
    from repro.errors import AnalysisError

    paths = args.paths or ["src"]
    try:
        selection = expand_selection(args.select)
        findings = analyze_flow_paths(paths, select=selection)
    except AnalysisError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2

    if args.write_baseline:
        baseline = baseline_from_findings(findings)
        try:
            write_baseline(baseline, args.write_baseline)
        except AnalysisError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        print("baseline with %d entry(ies) written to %s"
              % (len(baseline.entries), args.write_baseline))
        return 0

    stale = []
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        if os.path.isfile("flow_baseline.json"):
            baseline_path = "flow_baseline.json"
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except AnalysisError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        findings, stale = apply_baseline(findings, baseline)

    if args.format == "json":
        payload = render_json(findings)
        payload["stale_baseline_entries"] = [
            entry.to_dict() for entry in stale
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return exit_code(findings)
    if args.format == "sarif":
        print(json.dumps(render_sarif(findings), indent=2, sort_keys=True))
        return exit_code(findings)
    for line in render_text(findings):
        print(line)
    if not findings:
        print("no findings")
    for entry in stale:
        # Stale entries go to stderr and never change the exit code:
        # they mean the tree got *cleaner* than the baseline records.
        print("stale baseline entry: %s %s %s" % entry.key(),
              file=sys.stderr)
    return exit_code(findings)


def _cmd_inventory(args: argparse.Namespace) -> int:
    from repro.simulation.dbh import make_dbh_tippers
    from repro.spatial.model import SpaceType

    tippers = make_dbh_tippers()
    spatial = tippers.spatial
    print("spaces:")
    for space_type in SpaceType:
        count = len(spatial.spaces_of_type(space_type))
        if count:
            print("  %-10s %4d" % (space_type.value, count))
    print("sensors:")
    by_type: dict = {}
    for sensor in tippers.sensor_manager.sensors():
        by_type[sensor.sensor_type] = by_type.get(sensor.sensor_type, 0) + 1
    for sensor_type, count in sorted(by_type.items()):
        print("  %-20s %4d" % (sensor_type, count))
    print("total sensors: %d" % tippers.sensor_manager.count())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.simulation.scenario import run_figure1_scenario

    registry = obs.MetricsRegistry()
    tracer = obs.Tracer()
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(tracer)
    try:
        run_figure1_scenario(
            population=args.population,
            capture_ticks=args.ticks,
        )
    finally:
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)

    print("== observability snapshot (Figure-1 run, population %d, %d ticks) =="
          % (args.population, args.ticks))
    for line in registry.render():
        print(line)

    hits = registry.total("enforcement_table_total", {"result": "hit"})
    lookups = registry.total("enforcement_table_total")
    ratio = hits / lookups if lookups else 0.0
    print()
    print("enforcement table hit ratio: %.3f (%d hits / %d lookups)"
          % (ratio, hits, lookups))

    if args.traces:
        print()
        print("== slowest traces ==")
        for root in tracer.slowest_roots(args.traces):
            for line in root.tree_lines():
                print(line)

    if args.json:
        payload = json.dumps(registry.snapshot(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as handle:
                    handle.write(payload + "\n")
            except OSError as error:
                print("error: cannot write %s: %s" % (args.json, error),
                      file=sys.stderr)
                return 1
            print()
            print("snapshot written to %s" % args.json)
    return 0


class _Scenario(NamedTuple):
    """One fault scenario behind :func:`_cmd_scenario`."""

    #: ``module:function`` of the runner, imported when the scenario runs.
    runner: str
    plan: str
    seed: int
    population: int
    ticks: int
    #: The subcommand's help; None when another command's flag selects
    #: the scenario instead (``chaos --recover``).
    help: Optional[str]
    #: Extra ``add_argument`` specs beyond the shared scenario flags.
    flags: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    #: Runner keyword arguments taken from the extra flags.
    options: Callable[[argparse.Namespace], Dict[str, Any]] = (
        lambda args: {}
    )


_CAMPUS_FLAGS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("--buildings", dict(
        default=None, metavar="CSV",
        help="comma-separated initial building ids "
             "(default: the scenario's campus)",
    )),
    ("--dir", dict(
        default=None, metavar="PATH",
        help="keep each shard's WAL under this storage root",
    )),
)


def _campus_options(args: argparse.Namespace) -> Dict[str, Any]:
    options: Dict[str, Any] = {"directory": args.dir}
    if args.buildings:
        options["buildings"] = [
            b.strip() for b in args.buildings.split(",") if b.strip()
        ]
    return options


SCENARIOS: Dict[str, _Scenario] = {
    "chaos": _Scenario(
        "repro.simulation.chaos:run_chaos_scenario",
        "monkey", 11, 8, 6,
        help="run the pipeline under a named fault plan",
        flags=(("--recover", dict(
            action="store_const", dest="scenario", const="recover",
            help="run the crash-recovery scenario instead "
                 "(default plan: torn-storage)",
        )),),
    ),
    "recover": _Scenario(
        "repro.simulation.recover:run_recovery_scenario",
        "torn-storage", 11, 8, 6,
        help=None,
    ),
    "overload": _Scenario(
        "repro.simulation.overload:run_overload_scenario",
        "rush-hour", 11, 8, 12,
        help="run the admission-control overload scenario",
        flags=(("--no-admission", dict(
            action="store_true",
            help="disable the admission controller (ablation baseline)",
        )),),
        options=lambda args: {"admission": not args.no_admission},
    ),
    "federate": _Scenario(
        "repro.simulation.federate:run_federate_scenario",
        "campus-storm", 17, 12, 16,
        help="run the multi-building federation scenario",
        flags=_CAMPUS_FLAGS,
        options=_campus_options,
    ),
    "rebalance": _Scenario(
        "repro.simulation.rebalance:run_rebalance_scenario",
        "ring-change", 23, 24, 12,
        help="run the elastic-membership rebalancing scenario",
        flags=_CAMPUS_FLAGS,
        options=_campus_options,
    ),
}


def _given(value: Any, default: Any) -> Any:
    return default if value is None else value


def _cmd_scenario(args: argparse.Namespace) -> int:
    """Run one fault scenario, print its report, exit by its invariants."""
    import importlib
    import json

    from repro.errors import FaultError, FederationError
    from repro.faults import describe_plans

    if args.list or args.plan == "list":
        for line in describe_plans():
            print(line)
        return 0
    scenario = SCENARIOS[args.scenario]
    module, _, function = scenario.runner.partition(":")
    runner = getattr(importlib.import_module(module), function)
    try:
        report = runner(
            plan_name=_given(args.plan, scenario.plan),
            seed=_given(args.seed, scenario.seed),
            population=_given(args.population, scenario.population),
            ticks=_given(args.ticks, scenario.ticks),
            **scenario.options(args)
        )
    except (FaultError, FederationError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.report_text)
    if args.trace:
        print()
        print("== fault trace ==")
        sys.stdout.write(report.trace_text)
    if args.report_out and not _write_report(args.report_out,
                                             report.report_text):
        return 2
    return 0 if report.ok else 1


def _write_report(path: str, text: str) -> bool:
    """``--report-out``: write the report text; False (after an error
    message) when the file cannot be written."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        print("error: cannot write %s: %s" % (path, error), file=sys.stderr)
        return False
    return True


def _add_scenario_command(
    subparsers: Any, name: str, scenario: _Scenario
) -> None:
    """One scenario subcommand: the shared flags plus the row's own."""
    command = subparsers.add_parser(name, help=scenario.help)
    command.add_argument(
        "--plan", default=None,
        help="fault plan name, or 'list' to enumerate (default: %s)"
        % scenario.plan,
    )
    # Unset settings stay None: the handler takes them from the row of
    # the scenario that actually runs (``chaos --recover`` switches row).
    for setting, kind in (("seed", int), ("population", _positive_int),
                          ("ticks", _positive_int)):
        command.add_argument("--" + setting, type=kind, default=None,
                             help="(default: %d)" % getattr(scenario, setting))
    for flag, text in (("--json", "print the report as JSON"),
                       ("--trace", "also print the full fault trace"),
                       ("--list", "enumerate the shipped fault plans and exit")):
        command.add_argument(flag, action="store_true", help=text)
    command.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="also write the deterministic report text here",
    )
    for flag, spec in scenario.flags:
        command.add_argument(flag, **spec)
    command.set_defaults(func=_cmd_scenario, scenario=name)


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from repro.errors import StorageError
    from repro.storage.recovery import recover

    try:
        state = recover(args.dir)
    except StorageError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(state.report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(state.report.to_text())
    return 0


def _run_bench_suite(args: argparse.Namespace, label: str):
    from repro import bench

    return bench.run_suite(
        scale=args.scale,
        label=label,
        progress=lambda name: print("running %s ..." % name, file=sys.stderr),
    )


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.errors import BenchError

    try:
        record = _run_bench_suite(args, args.label)
        if args.out:
            bench.write_record(record, args.out)
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.out:
        print("record written to %s" % args.out)
    elif args.json:
        sys.stdout.write(record.dumps())
    else:
        print("bench record: scale=%s label=%s peak_rss_kb=%d"
              % (record.scale, record.label or "-", record.peak_rss_kb))
        for name, entry in sorted(record.benchmarks.items()):
            print("  %-20s %s" % (name, " ".join(
                "%s=%.4g~%.1f%%" % (metric, timed.median, 100.0 * timed.share)
                for metric, timed in sorted(entry.timed.items())
            )))
    return 0


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.errors import BenchError

    try:
        numbered, path = bench.append_record(
            _run_bench_suite(args, args.label), args.dir
        )
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    print("recorded BENCH_%04d at %s" % (numbered.record_id, path))
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json

    from repro import bench
    from repro.errors import BenchError

    try:
        if args.baseline:
            baseline = bench.load_record(args.baseline)
        else:
            baseline = bench.latest_record(args.dir)
        if baseline is None:
            print("error: no BENCH_<n>.json baseline in %s" % args.dir,
                  file=sys.stderr)
            return 2
        if args.candidate:
            candidate = bench.load_record(args.candidate)
        else:
            candidate = _run_bench_suite(args, "compare-candidate")
        report = bench.compare_records(baseline, candidate)
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Privacy-aware smart buildings (ICDCS 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure1 = subparsers.add_parser("figure1", help="run the Figure-1 interaction")
    figure1.add_argument("--population", type=_positive_int, default=25)
    figure1.add_argument(
        "--persona",
        choices=("unconcerned", "pragmatist", "fundamentalist"),
        default="fundamentalist",
    )
    figure1.set_defaults(func=_cmd_figure1)

    lint = subparsers.add_parser(
        "lint",
        help="static analysis: policy audit (no paths) or code lint (paths)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to code-lint; omit to audit the DBH policy set",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids or prefixes (e.g. C003 or P)",
    )
    lint.add_argument(
        "--flow", action="store_true",
        help="run the interprocedural privacy-flow analysis "
             "(rules F001-F006) over the paths (default: src)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="with --flow: baseline file to subtract "
             "(default: ./flow_baseline.json when present)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="with --flow: ignore any baseline file",
    )
    lint.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="with --flow: pin the current findings as a baseline and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    inventory = subparsers.add_parser("inventory", help="print the DBH inventory")
    inventory.set_defaults(func=_cmd_inventory)

    obs = subparsers.add_parser(
        "obs", help="run Figure 1 and print the observability snapshot"
    )
    obs.add_argument("--population", type=_positive_int, default=15)
    obs.add_argument("--ticks", type=_positive_int, default=5)
    obs.add_argument("--json", default=None, metavar="PATH",
                     help="also dump the snapshot as JSON ('-' for stdout)")
    obs.add_argument("--traces", type=int, default=3,
                     help="number of slowest span trees to print (0 disables)")
    obs.set_defaults(func=_cmd_obs)

    for name, scenario in SCENARIOS.items():
        if scenario.help is not None:
            _add_scenario_command(subparsers, name, scenario)

    recover = subparsers.add_parser(
        "recover", help="replay a storage directory and print the recovery report"
    )
    recover.add_argument("--dir", required=True,
                         help="storage directory (MANIFEST.json + wal-*.seg)")
    recover.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    recover.set_defaults(func=_cmd_recover)

    bench = subparsers.add_parser(
        "bench", help="run/record/compare the perf trajectory"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run the scale suite and print the record"
    )
    bench_run.add_argument(
        "--scale", choices=("smoke", "ci", "full"), default="ci",
        help="workload sizing preset (default: ci)",
    )
    bench_run.add_argument("--label", default="",
                           help="free-form label stored in the record")
    bench_run.add_argument("--json", action="store_true",
                           help="print the raw record JSON")
    bench_run.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the record to PATH instead of printing",
    )
    bench_run.set_defaults(func=_cmd_bench_run)

    bench_record = bench_sub.add_parser(
        "record", help="append the next BENCH_<n>.json to the trajectory"
    )
    bench_record.add_argument(
        "--scale", choices=("smoke", "ci", "full"), default="ci",
    )
    bench_record.add_argument("--label", default="")
    bench_record.add_argument(
        "--dir", default=".",
        help="trajectory directory (default: current directory)",
    )
    bench_record.set_defaults(func=_cmd_bench_record)

    bench_compare = bench_sub.add_parser(
        "compare", help="gate a candidate against the latest committed record"
    )
    bench_compare.add_argument(
        "--dir", default=".",
        help="trajectory directory holding BENCH_<n>.json (default: .)",
    )
    bench_compare.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="explicit baseline record (default: latest in --dir)",
    )
    bench_compare.add_argument(
        "--candidate", default=None, metavar="PATH",
        help="candidate record file (default: run the suite fresh)",
    )
    bench_compare.add_argument(
        "--scale", choices=("smoke", "ci", "full"), default="ci",
        help="scale for the fresh candidate run (default: ci)",
    )
    bench_compare.add_argument("--json", action="store_true",
                               help="print the comparison as JSON")
    bench_compare.set_defaults(func=_cmd_bench_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
