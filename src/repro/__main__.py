"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
figure1 [--population N] [--persona NAME]
    Run the paper's Figure-1 interaction end to end and print the
    per-step report.
lint [paths...] [--format text|json|sarif] [--select RULES] [--flow]
    With no paths: statically audit the default DBH policy set, its
    advertisement registry, and the deployed sensors (policy rules
    P001-P010 plus the reasoner's legacy checks).  With paths: run the
    AST code lint (rules C001-C007) over every ``*.py`` file under
    them.  With ``--flow``: run the interprocedural privacy-flow
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
chaos [--plan NAME] [--seed N] [--population N] [--ticks N] [--json] [--trace]
    Run the compact pipeline under a named fault plan (deterministic
    fault injection) and report delivered/dropped/degraded counts, the
    faults fired, and optionally the full fault trace.  ``--list`` (or
    ``--plan list``) prints the shipped plans with one-line summaries.
    With ``--recover``, run the storage crash-recovery scenario
    instead: crash a storage-backed run via the plan's WAL faults,
    recover, and check the recovery invariants (exit 1 if any is
    violated); ``--report-out PATH`` writes the deterministic report
    text for byte-diffing two same-seed runs.
overload [--plan NAME] [--seed N] [--population N] [--ticks N] [--json]
    Run the overload scenario: admission control, priority load
    shedding, and privacy-preserving brownout under a burst fault plan
    (default ``rush-hour``).  Checks the overload invariants -- zero
    CRITICAL sheds, DEFERRABLE shed rate above zero, every degraded
    response marked in the audit record -- and exits 1 if any is
    violated.  ``--no-admission`` runs the same workload with the
    controller disabled (the ablation baseline); ``--report-out PATH``
    writes the deterministic report text for byte-diffing.
federate [--plan NAME] [--seed N] [--population N] [--ticks N] [--json]
    Run the multi-building federation scenario: a campus of
    independently-WAL'd TIPPERS shards behind a consistent-hash router,
    IoTA roaming handoffs with ``roaming:<home>`` audit markers, a shard
    crash + WAL recovery mid-run, and a campus-wide DSAR fan-out with
    per-shard compaction (default plan ``campus-storm``).  The report is
    seeded and byte-reproducible; exits 1 if any federation invariant is
    violated.  ``--report-out PATH`` writes the report text for
    byte-diffing; ``--dir PATH`` keeps each shard's WAL directory.
rebalance [--plan NAME] [--seed N] [--population N] [--ticks N] [--json]
    Run the elastic-membership scenario: a building joins the campus
    hash ring and another drains out, with every displaced user moved
    by the two-phase WAL-journaled migration protocol -- under the
    ``ring-change`` plan, which partitions one finalize acknowledgement
    and crashes a destination shard mid-import.  Checks the rebalancing
    invariants (journal-guided convergence, marked forwarded decisions,
    fail-closed dark windows, no post-DSAR resurrection, breaker
    eviction on decommission) and exits 1 if any is violated.  The
    report is byte-reproducible; ``--report-out PATH`` writes it for
    diffing and ``--dir PATH`` keeps each shard's WAL directory.
recover --dir PATH [--json]
    Replay an existing storage directory (snapshot + WAL) and print the
    recovery report without mutating it.
bench run|record|compare
    The recorded perf trajectory.  ``run`` executes the scale suite and
    prints (or writes) a schema-validated record; ``record`` appends it
    as the next ``BENCH_<n>.json`` on the trajectory; ``compare`` gates
    a fresh run (or a given candidate file) against the last committed
    record with per-metric tolerances -- exit 0 on pass, 1 on
    regression, 2 when no baseline/usage error.
soak [--populations CSV] [--seed N] [--ticks N] [--json] [--report-out PATH]
    The stepped-population capacity soak: find the max sustainable
    population under the latency/memory ceilings.  The report is
    seeded and byte-reproducible.  Exit 0 when some step is
    sustainable, 1 when none is.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


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
        # Legacy reasoner checks still back the no-path audit; keep the
        # "policy set is clean" phrasing the test suite (and humans)
        # rely on.
        legacy = _legacy_policy_findings()
        if legacy:
            for finding in legacy:
                print(finding)
            return 1
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


def _legacy_policy_findings():
    from repro.core.policy import catalog
    from repro.core.reasoner.analysis import analyze_policies, errors_only
    from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
    from repro.spatial.model import SpaceType

    tippers = make_dbh_tippers()
    rooms = [s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)]
    policies = [
        catalog.policy_1_comfort(rooms),
        catalog.policy_2_emergency_location(BUILDING_ID),
        catalog.policy_3_meeting_room_access(rooms[:5]),
        catalog.policy_service_sharing(BUILDING_ID),
    ]
    deployed = {s.sensor_type for s in tippers.sensor_manager.sensors()}
    return errors_only(analyze_policies(policies, deployed_sensor_types=deployed))


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


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FaultError
    from repro.faults import describe_plans
    from repro.simulation.chaos import run_chaos_scenario

    if args.list or args.plan == "list":
        for line in describe_plans():
            print(line)
        return 0
    if args.recover:
        return _chaos_recover(args)
    try:
        report = run_chaos_scenario(
            plan_name=args.plan,
            seed=args.seed,
            population=args.population,
            ticks=args.ticks,
        )
    except FaultError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.summary_lines():
            print(line)
    if args.trace:
        print()
        print("== fault trace ==")
        sys.stdout.write(report.trace_text)
    return 0


def _chaos_recover(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FaultError
    from repro.simulation.recover import run_recovery_scenario

    try:
        report = run_recovery_scenario(
            plan_name=args.plan if args.plan != "monkey" else "torn-storage",
            seed=args.seed,
            population=args.population,
            ticks=args.ticks,
        )
    except FaultError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.report_text)
    if args.report_out:
        try:
            with open(args.report_out, "w") as handle:
                handle.write(report.report_text)
        except OSError as error:
            print("error: cannot write %s: %s" % (args.report_out, error),
                  file=sys.stderr)
            return 2
    return 0 if report.ok else 1


def _cmd_overload(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FaultError
    from repro.simulation.overload import run_overload_scenario

    try:
        report = run_overload_scenario(
            plan_name=args.plan,
            seed=args.seed,
            population=args.population,
            ticks=args.ticks,
            admission=not args.no_admission,
        )
    except FaultError as error:
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
    if args.report_out:
        try:
            with open(args.report_out, "w") as handle:
                handle.write(report.report_text)
        except OSError as error:
            print("error: cannot write %s: %s" % (args.report_out, error),
                  file=sys.stderr)
            return 2
    return 0 if report.ok else 1


def _cmd_federate(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FaultError, FederationError
    from repro.simulation.federate import run_federate_scenario

    buildings = None
    if args.buildings:
        buildings = [b.strip() for b in args.buildings.split(",") if b.strip()]
    try:
        kwargs = {}
        if buildings is not None:
            kwargs["buildings"] = buildings
        report = run_federate_scenario(
            plan_name=args.plan,
            seed=args.seed,
            population=args.population,
            ticks=args.ticks,
            directory=args.dir,
            **kwargs
        )
    except (FaultError, FederationError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.report_text)
    if args.report_out:
        try:
            with open(args.report_out, "w") as handle:
                handle.write(report.report_text)
        except OSError as error:
            print("error: cannot write %s: %s" % (args.report_out, error),
                  file=sys.stderr)
            return 2
    return 0 if report.ok else 1


def _cmd_rebalance(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FaultError, FederationError
    from repro.simulation.rebalance import run_rebalance_scenario

    buildings = None
    if args.buildings:
        buildings = [b.strip() for b in args.buildings.split(",") if b.strip()]
    try:
        kwargs = {}
        if buildings is not None:
            kwargs["buildings"] = buildings
        report = run_rebalance_scenario(
            plan_name=args.plan,
            seed=args.seed,
            population=args.population,
            ticks=args.ticks,
            directory=args.dir,
            **kwargs
        )
    except (FaultError, FederationError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.report_text)
    if args.report_out:
        try:
            with open(args.report_out, "w") as handle:
                handle.write(report.report_text)
        except OSError as error:
            print("error: cannot write %s: %s" % (args.report_out, error),
                  file=sys.stderr)
            return 2
    return 0 if report.ok else 1


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


def _cmd_bench_run(args: argparse.Namespace) -> int:
    import json

    from repro import bench
    from repro.errors import BenchError

    try:
        record = bench.run_suite(
            scale=args.scale,
            label=args.label,
            progress=lambda name: print("running %s ..." % name,
                                        file=sys.stderr),
        )
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.out:
        try:
            bench.write_record(record, args.out)
        except BenchError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        print("record written to %s" % args.out)
        return 0
    if args.json:
        sys.stdout.write(record.dumps())
    else:
        for line in _bench_lines(record):
            print(line)
    return 0


def _bench_lines(record) -> List[str]:
    lines = [
        "bench record: scale=%s label=%s peak_rss_kb=%d"
        % (record.scale, record.label or "-", record.peak_rss_kb),
    ]
    for name, entry in sorted(record.benchmarks.items()):
        latency = entry.decision_latency
        lines.append(
            "  %-22s p50=%-10.3fus p99=%-10.3fus throughput=%-12.1f/s "
            "shed=%.4f brownout=%.4f wal=%dB"
            % (name, latency.p50_us, latency.p99_us,
               entry.ingest_throughput_per_s, entry.shed_rate,
               entry.brownout_rate, entry.wal_bytes)
        )
    return lines


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.errors import BenchError

    try:
        record = bench.run_suite(
            scale=args.scale,
            label=args.label,
            progress=lambda name: print("running %s ..." % name,
                                        file=sys.stderr),
        )
        numbered, path = bench.append_record(record, args.dir)
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
            candidate = bench.run_suite(
                scale=args.scale,
                label="compare-candidate",
                progress=lambda name: print("running %s ..." % name,
                                            file=sys.stderr),
            )
        tolerances = bench.Tolerances(
            latency_factor=args.latency_tolerance,
            throughput_factor=args.throughput_tolerance,
            rate_slack=args.rate_slack,
        )
        report = bench.compare_records(baseline, candidate, tolerances)
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    import json

    from repro.simulation.longrun import SOAK_POPULATIONS, run_capacity_soak

    populations = SOAK_POPULATIONS
    if args.populations:
        try:
            populations = tuple(
                int(token) for token in args.populations.split(",") if token
            )
        except ValueError:
            print("error: --populations must be a CSV of integers",
                  file=sys.stderr)
            return 2
    try:
        report = run_capacity_soak(
            populations=populations,
            seed=args.seed,
            ticks=args.ticks,
            active_cap=args.active_cap,
            latency_ceiling_us=args.latency_ceiling_us,
            memory_ceiling_mb=args.memory_ceiling_mb,
        )
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.report_text())
    if args.report_out:
        try:
            with open(args.report_out, "w") as handle:
                handle.write(report.report_text())
        except OSError as error:
            print("error: cannot write %s: %s" % (args.report_out, error),
                  file=sys.stderr)
            return 2
    return 0 if report.max_sustainable_population > 0 else 1


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

    chaos = subparsers.add_parser(
        "chaos", help="run the pipeline under a named fault plan"
    )
    chaos.add_argument(
        "--plan", default="monkey",
        help="fault plan name, or 'list' to enumerate (default: monkey)",
    )
    chaos.add_argument("--seed", type=int, default=11)
    chaos.add_argument("--population", type=_positive_int, default=8)
    chaos.add_argument("--ticks", type=_positive_int, default=6)
    chaos.add_argument("--json", action="store_true",
                       help="print the report as JSON")
    chaos.add_argument("--trace", action="store_true",
                       help="also print the full fault trace")
    chaos.add_argument(
        "--recover", action="store_true",
        help="run the crash-recovery scenario (default plan: torn-storage)",
    )
    chaos.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="with --recover: also write the deterministic report text here",
    )
    chaos.add_argument(
        "--list", action="store_true",
        help="enumerate the shipped fault plans and exit",
    )
    chaos.set_defaults(func=_cmd_chaos)

    overload = subparsers.add_parser(
        "overload",
        help="run the admission-control overload scenario",
    )
    overload.add_argument(
        "--plan", default="rush-hour",
        help="fault plan name (default: rush-hour)",
    )
    overload.add_argument("--seed", type=int, default=11)
    overload.add_argument("--population", type=_positive_int, default=8)
    overload.add_argument("--ticks", type=_positive_int, default=12)
    overload.add_argument("--json", action="store_true",
                          help="print the report as JSON")
    overload.add_argument("--trace", action="store_true",
                          help="also print the full fault trace")
    overload.add_argument(
        "--no-admission", action="store_true",
        help="disable the admission controller (ablation baseline)",
    )
    overload.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="also write the deterministic report text here",
    )
    overload.set_defaults(func=_cmd_overload)

    federate = subparsers.add_parser(
        "federate",
        help="run the multi-building federation scenario",
    )
    federate.add_argument(
        "--plan", default="campus-storm",
        help="fault plan name (default: campus-storm)",
    )
    federate.add_argument("--seed", type=int, default=17)
    federate.add_argument("--population", type=_positive_int, default=12)
    federate.add_argument("--ticks", type=_positive_int, default=16)
    federate.add_argument(
        "--buildings", default=None, metavar="CSV",
        help="comma-separated building ids (default: bldg-a..bldg-d)",
    )
    federate.add_argument(
        "--dir", default=None, metavar="PATH",
        help="keep each shard's WAL under this storage root",
    )
    federate.add_argument("--json", action="store_true",
                          help="print the report as JSON")
    federate.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="also write the deterministic report text here",
    )
    federate.set_defaults(func=_cmd_federate)

    rebalance = subparsers.add_parser(
        "rebalance",
        help="run the elastic-membership rebalancing scenario",
    )
    rebalance.add_argument(
        "--plan", default="ring-change",
        help="fault plan name (default: ring-change)",
    )
    rebalance.add_argument("--seed", type=int, default=23)
    rebalance.add_argument("--population", type=_positive_int, default=24)
    rebalance.add_argument("--ticks", type=_positive_int, default=12)
    rebalance.add_argument(
        "--buildings", default=None, metavar="CSV",
        help="comma-separated initial building ids (default: bldg-a..bldg-c)",
    )
    rebalance.add_argument(
        "--dir", default=None, metavar="PATH",
        help="keep each shard's WAL under this storage root",
    )
    rebalance.add_argument("--json", action="store_true",
                           help="print the report as JSON")
    rebalance.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="also write the deterministic report text here",
    )
    rebalance.set_defaults(func=_cmd_rebalance)

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
    bench_compare.add_argument("--latency-tolerance", type=float, default=3.0,
                               help="max latency growth factor (default: 3)")
    bench_compare.add_argument("--throughput-tolerance", type=float,
                               default=3.0,
                               help="max throughput shrink factor (default: 3)")
    bench_compare.add_argument("--rate-slack", type=float, default=0.10,
                               help="absolute shed/brownout slack (default: 0.1)")
    bench_compare.add_argument("--json", action="store_true",
                               help="print the comparison as JSON")
    bench_compare.set_defaults(func=_cmd_bench_compare)

    soak = subparsers.add_parser(
        "soak", help="stepped-population capacity soak"
    )
    soak.add_argument(
        "--populations", default=None, metavar="CSV",
        help="comma-separated population steps (default: 1000,10000,100000,1000000)",
    )
    soak.add_argument("--seed", type=int, default=17)
    soak.add_argument("--ticks", type=_positive_int, default=6)
    soak.add_argument("--active-cap", type=_positive_int, default=200,
                      help="max simulated principals per step (default: 200)")
    soak.add_argument("--latency-ceiling-us", type=float, default=5000.0)
    soak.add_argument("--memory-ceiling-mb", type=float, default=2048.0)
    soak.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    soak.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="also write the deterministic report text here",
    )
    soak.set_defaults(func=_cmd_soak)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
