"""Command-line interface for the Corona reproduction.

Installed as ``corona-repro`` (see ``pyproject.toml``).  Subcommands:

``run``
    Execute a scenario JSON file through the Scenario API (the stable
    entry point everything below is built on).  ``--check-determinism``
    instead replays the scenario in fresh processes and diffs result
    digests (exit code 4 on divergence).
``lint``
    Static determinism & unit-flow analysis over the source tree, gated
    by a committed baseline of grandfathered findings.
``scenario``
    ``init`` (write a template scenario file), ``validate`` (parse + check
    names against the registries) and ``list`` (show every registered
    configuration, workload and sweep).
``sweep``
    ``run`` (execute a sweep spec file or a registered sweep by name, with
    ``--directory`` checkpointing and resume), ``expand`` (preview the grid
    points a spec expands to) and ``status`` (progress of a sweep
    directory).
``diff``
    Compare two runs (result JSON/CSV, sweep directories, bench
    snapshots) and emit a ranked divergence report; exit code 5 when a
    divergence crosses the threshold.
``trace``
    ``info`` (inspect a trace file, either format), ``convert``
    (text <-> packed binary, the on-disk import hook for externally
    generated traces) and ``view`` (summarize a ``--timeline-out``
    artifact: span histograms, slowest transactions, fault events).
``tables``
    Print Tables 1-4 regenerated from the models.
``inventory``
    Print the Table 2 optical inventory for an arbitrary cluster count.
``power``
    Print the chip-level power/area roll-up and the memory-interconnect power
    comparison.
``sensitivity``
    Print the physical-design sensitivity sweeps (waveguide loss, ring loss,
    laser power).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api import (
    CONFIGURATIONS,
    WORKLOADS,
    OutputSpec,
    RegistryError,
    ScaleSpec,
    Scenario,
    ScenarioError,
    SystemSpec,
    WorkloadSpec,
    load_scenario,
)
from repro import __version__
from repro.api import run as run_scenario
from repro.core.configs import CONFIGURATION_ORDER
from repro.harness.parallel import WorkerSetupError
from repro.harness.resilience import (
    PairFailureError,
    RetryPolicy,
    summarize_failures,
)
from repro.harness.sensitivity import physical_design_sweeps_text
from repro.harness.tables import format_table, render_all_tables
from repro.obs.log import configure_logging
from repro.photonics.inventory import corona_inventory
from repro.power.chip import corona_chip_power
from repro.power.electrical import electrical_memory_interconnect_power_w
from repro.power.optical import optical_memory_interconnect_power_w


def _workload_name(name: str) -> str:
    """Canonical registry name for ``name`` (case-insensitive match)."""
    for registered in WORKLOADS.names():
        if registered.lower() == name.lower():
            return registered
    raise SystemExit(
        f"unknown workload {name!r}; choose one of {WORKLOADS.names()}"
    )


# ---------------------------------------------------------------------------
# Static report commands (tables / inventory / power / sensitivity)
# ---------------------------------------------------------------------------

def _cmd_tables(_args: argparse.Namespace) -> int:
    print(render_all_tables())
    return 0


def _cmd_inventory(args: argparse.Namespace) -> int:
    inventory = corona_inventory(clusters=args.clusters)
    print(inventory.report())
    return 0


def _cmd_power(_args: argparse.Namespace) -> int:
    print("Chip power / area roll-up (Section 3.1):")
    rows = []
    for anchor in ("penryn", "silverthorne"):
        report = corona_chip_power(anchor=anchor)
        rows.append(
            (
                anchor,
                f"{report.processor_power_w:.1f}",
                f"{report.total_power_w:.1f}",
                f"{report.core_die_area_mm2:.0f}",
            )
        )
    print(
        format_table(
            ["anchor", "processor W", "total W", "core die mm^2"], rows
        )
    )
    print()
    print("Memory interconnect power at 10.24 TB/s:")
    print(f"  optical (OCM):    {optical_memory_interconnect_power_w(10.24e12):7.2f} W")
    print(f"  electrical:       {electrical_memory_interconnect_power_w(10.24e12):7.2f} W")
    return 0


def _cmd_sensitivity(_args: argparse.Namespace) -> int:
    print(physical_design_sweeps_text())
    return 0


# ---------------------------------------------------------------------------
# Scenario API commands: run / scenario init|validate|list
# ---------------------------------------------------------------------------

def _scenario_error_message(path: str, exc: ScenarioError) -> str:
    """Prefix a scenario error with its file path exactly once.

    File-level errors from :func:`load_scenario` already carry the path as
    their field (Path-normalized, e.g. ``./x.json`` becomes ``x.json``);
    re-prefixing those would print ``x.json: x.json: ...``.
    """
    from pathlib import Path

    message = str(exc)
    if message.startswith(f"{Path(path)}:"):
        return message
    return f"{path}: {message}"


#: Exit code when pairs/points failed after exhausting their retries (a
#: clean partial run under ``--allow-failures`` still exits 0).
EXIT_FAILURES = 3
#: ``run --check-determinism`` found diverging result digests.
EXIT_DETERMINISM = 4
#: ``lint`` found findings not covered by the baseline.
EXIT_LINT_FINDINGS = 1
#: ``diff`` found gating divergences between the two runs.
EXIT_DIVERGENCE = 5


def _policy_from_args(args: argparse.Namespace) -> Optional[RetryPolicy]:
    """The resilience policy the ``--timeout/--retries/--allow-failures``
    flags describe, or None when none was given (historic behavior)."""
    if (
        args.timeout is None
        and args.retries is None
        and not args.allow_failures
    ):
        return None
    policy = RetryPolicy(
        timeout_s=args.timeout,
        allow_failures=args.allow_failures,
    )
    if args.retries is not None:
        from dataclasses import replace

        policy = replace(policy, max_retries=args.retries)
    return policy


def _print_failures(failures) -> None:
    counts = summarize_failures(failures)
    rendering = ", ".join(f"{count} {kind}" for kind, count in counts.items())
    print(f"{len(failures)} pair(s) failed after retries ({rendering}):")
    for failure in failures:
        print(
            f"  {failure.workload} {failure.configuration} "
            f"[{failure.kind}, {failure.attempts} attempt(s)] "
            f"{failure.message}"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        raise SystemExit(_scenario_error_message(args.scenario, exc)) from None
    if args.arrival:
        import json as json_module

        try:
            arrival = json_module.loads(args.arrival)
        except json_module.JSONDecodeError as exc:
            raise SystemExit(f"--arrival: not valid JSON: {exc}") from None
        try:
            scenario = scenario.with_field("workloads[*].arrival", arrival)
        except ScenarioError as exc:
            raise SystemExit(f"--arrival: {exc}") from None
    if args.output:
        from dataclasses import replace

        scenario = replace(
            scenario, output=OutputSpec(report=args.output).derived()
        )
    observability = _observability_from_args(args, scenario.observability)
    if observability is not scenario.observability:
        from dataclasses import replace

        scenario = replace(scenario, observability=observability)
    if args.check_determinism:
        from repro.analysis.runtime import check_determinism

        try:
            check = check_determinism(scenario, jobs=args.jobs)
        except (RuntimeError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        print(check.summary())
        return 0 if check.ok else EXIT_DETERMINISM
    progress = print if args.verbose else None
    try:
        result = run_scenario(
            scenario,
            jobs=args.jobs,
            progress=progress,
            policy=_policy_from_args(args),
        )
    except ScenarioError as exc:
        raise SystemExit(_scenario_error_message(args.scenario, exc)) from None
    except WorkerSetupError as exc:
        raise SystemExit(str(exc)) from None
    except PairFailureError as exc:
        _print_failures(exc.failures)
        return EXIT_FAILURES
    if result.written:
        for kind, path in sorted(result.written.items()):
            print(f"{kind} written to {path}")
        print(
            f"{len(result.results)} results "
            f"({result.wall_clock_seconds:.1f} s wall clock)"
        )
    else:
        print(result.to_markdown())
    if result.failures:
        # --allow-failures: the partial run is the requested outcome; report
        # what was skipped and exit clean.
        _print_failures(result.failures)
        print("continuing with partial results (--allow-failures)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.analysis import (
        AnalysisError,
        analyze_paths,
        load_baseline,
        partition_findings,
        render_json,
        render_rule_catalog,
        render_text,
        write_baseline,
    )

    if args.rules:
        print(render_rule_catalog())
        return 0
    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    baseline_path = Path(args.baseline)
    try:
        report = analyze_paths(paths, select=args.select, ignore=args.ignore)
        baseline = load_baseline(baseline_path)
    except AnalysisError as exc:
        raise SystemExit(str(exc)) from None
    if args.update_baseline:
        write_baseline(baseline_path, report.findings)
        print(
            f"baseline written to {baseline_path} "
            f"({len(report.findings)} findings)"
        )
        return 0
    new, baselined, stale = partition_findings(report.findings, baseline)
    if args.format == "json":
        print(
            json_module.dumps(
                render_json(report, new, baselined, stale), indent=2
            )
        )
    else:
        print(render_text(report, new, baselined, stale))
    return EXIT_LINT_FINDINGS if new else 0


def _template_scenario(args: argparse.Namespace) -> Scenario:
    for name in args.configurations or []:
        if name not in CONFIGURATIONS:
            raise SystemExit(
                f"unknown configuration {name!r}; choose one of "
                f"{CONFIGURATIONS.names()}"
            )
    configurations = tuple(args.configurations or CONFIGURATION_ORDER)
    workload_names = [
        _workload_name(name)
        for name in (args.workloads or WORKLOADS.default_names())
    ]
    return Scenario(
        name="example",
        description=(
            "Template scenario written by `corona-repro scenario init`. "
            "Every field is optional and shown with its default; see the "
            "README's Scenario API section for the schema."
        ),
        system=SystemSpec(configurations=configurations),
        workloads=tuple(WorkloadSpec(name=name) for name in workload_names),
        scale=ScaleSpec(tier=args.scale),
        jobs=args.jobs,
        output=OutputSpec(report=args.report).derived() if args.report
        else OutputSpec(),
    )


def _cmd_scenario_init(args: argparse.Namespace) -> int:
    from pathlib import Path

    path = Path(args.path)
    if path.exists() and not args.force:
        raise SystemExit(f"{path} exists; pass --force to overwrite")
    scenario = _template_scenario(args)
    scenario.save(path)
    print(
        f"wrote {path}: {len(scenario.system.configurations)} configurations "
        f"x {len(scenario.workloads)} workloads at scale "
        f"{scenario.scale.tier!r}"
    )
    print(f"run it with: corona-repro run {path}")
    return 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.path)
        matrix = scenario.validate()
    except ScenarioError as exc:
        raise SystemExit(
            f"INVALID: {_scenario_error_message(args.path, exc)}"
        ) from None
    print(
        f"{args.path}: OK ({len(matrix.configuration_names)} "
        f"configurations x {len(matrix.workloads())} workloads = "
        f"{matrix.run_count()} pairs, "
        f"scale {scenario.scale.tier!r}, jobs {scenario.jobs})"
    )
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    import importlib

    from repro.api import SWEEPS

    importlib.import_module("repro.sweeps")  # registers the stock sweeps
    for module in args.modules or []:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise SystemExit(f"cannot import {module!r}: {exc}") from None
    sections = [
        ("configurations", CONFIGURATIONS),
        ("workloads", WORKLOADS),
        ("sweeps", SWEEPS),
    ]
    for title, registry_table in sections:
        print(f"{title} ({len(registry_table)}):")
        for name in registry_table.names():
            doc = (registry_table.get(name).__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
            print(f"  {name:<14} {summary}".rstrip())
        print()
    return 0


# ---------------------------------------------------------------------------
# Sweep commands: run / expand / status
# ---------------------------------------------------------------------------

def _load_sweep_argument(spec_argument: str, **params):
    """A sweep spec from a JSON file path or a registered sweep name.

    ``params`` go to the registered sweep's factory (the ``--scale`` flag);
    a spec *file* is already fully parameterized, so passing any rejects
    the combination loudly instead of silently ignoring the flag.
    Parse/validation failures exit with the clean field-path message (like
    every other subcommand), never a raw traceback.
    """
    from pathlib import Path

    from repro import sweeps

    try:
        if Path(spec_argument).exists():
            if params:
                raise SystemExit(
                    f"{'/'.join(f'--{k}' for k in params)} applies to "
                    f"registered sweep names only; {spec_argument!r} is a "
                    f"spec file (edit the file instead)"
                )
            return sweeps.load_sweep(spec_argument)
        if spec_argument in sweeps.SWEEPS:
            try:
                return sweeps.build_registered_sweep(spec_argument, **params)
            except RegistryError as exc:  # the factory built no SweepSpec
                raise SystemExit(str(exc)) from None
            except (TypeError, ValueError) as exc:
                raise SystemExit(
                    f"sweep {spec_argument!r} rejected its parameters: {exc}"
                ) from None
    except ScenarioError as exc:  # SweepError subclasses ScenarioError
        raise SystemExit(_scenario_error_message(spec_argument, exc)) from None
    raise SystemExit(
        f"{spec_argument!r} is neither a sweep spec file nor a registered "
        f"sweep; registered: {sweeps.SWEEPS.names()} (write a spec with the "
        f"README's \"Parameter sweeps\" snippet)"
    )


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweeps import run_sweep

    params = {}
    if args.scale is not None:
        params["scale"] = args.scale
    spec = _load_sweep_argument(args.spec, **params)
    obs_override = _observability_from_args(args, spec.base.observability)
    if obs_override is spec.base.observability:
        obs_override = None  # no flags: each point keeps its own spec
    try:
        outcome = run_sweep(
            spec,
            directory=args.directory,
            jobs=args.jobs,
            progress=print if args.verbose else None,
            resume=not args.fresh,
            policy=_policy_from_args(args),
            observability=obs_override,
        )
    except ScenarioError as exc:  # SweepError subclasses ScenarioError
        raise SystemExit(str(exc)) from None
    except WorkerSetupError as exc:
        raise SystemExit(str(exc)) from None
    except PairFailureError as exc:
        # Completed points are checkpointed and the sinks written before the
        # engine raises; re-running the same command retries just the failed
        # points.
        _print_failures(exc.failures)
        if args.directory:
            print(
                f"completed points are checkpointed in {args.directory}; "
                f"re-run the same command to retry only the failed points"
            )
        return EXIT_FAILURES
    if outcome.skipped_point_ids:
        print(
            f"resumed: {len(outcome.skipped_point_ids)} completed points "
            f"skipped, {len(outcome.executed_point_ids)} executed"
        )
    print(
        f"sweep '{spec.name}': {len(outcome.records)} records from "
        f"{len(outcome.points)} points "
        f"({outcome.wall_clock_seconds:.1f} s wall clock)"
    )
    if outcome.retried_pairs:
        print(f"{outcome.retried_pairs} pair attempt(s) were retried")
    for kind, path in sorted(outcome.written.items()):
        print(f"{kind} written to {path}")
    if outcome.failures:
        flat = [f for fs in outcome.failures.values() for f in fs]
        _print_failures(flat)
        print(
            f"{len(outcome.failures)} point(s) recorded as failed "
            f"(continuing with partial results; they re-run on resume)"
        )
    return 0


def _cmd_sweep_expand(args: argparse.Namespace) -> int:
    from repro.sweeps import expand

    spec = _load_sweep_argument(args.spec)
    try:
        points = expand(spec)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    axis_names = [axis.name for axis in spec.axes]
    print(
        f"sweep '{spec.name}': {len(points)} points over "
        f"axes {axis_names}"
    )
    for point in points:
        values = ", ".join(
            f"{name}={value!r}" for name, value in point.axis_values.items()
        )
        workload_count = len(point.scenario.workloads) or len(
            WORKLOADS.default_names()
        )
        pairs = len(point.scenario.system.configurations) * workload_count
        print(f"  {point.point_id}  [{values}]  ({pairs} pairs)")
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.sweeps import sweep_status

    try:
        status = sweep_status(args.directory)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    state = "complete" if status.complete else "in progress"
    print(
        f"sweep '{status.name}': {len(status.completed_ids)}/{status.total} "
        f"points complete ({state})"
    )
    if status.failed_ids or status.retried_pairs or status.quarantined_pairs:
        print(
            f"resilience: {len(status.failed_ids)} failed point(s), "
            f"{status.retried_pairs} retried pair(s), "
            f"{status.quarantined_pairs} quarantined pair(s)"
        )
    failed = set(status.failed_ids)
    timings = status.point_seconds if getattr(args, "timings", False) else {}

    def _annotate(point_id: str) -> str:
        if point_id in timings:
            return f"  ({timings[point_id]:.2f} s replay)"
        return ""

    for point_id in status.completed_ids:
        print(f"  done     {point_id}{_annotate(point_id)}")
    for point_id in status.failed_ids:
        print(f"  failed   {point_id}{_annotate(point_id)}")
    for point_id in status.pending_ids:
        if point_id not in failed:
            print(f"  pending  {point_id}")
    if timings:
        print(f"total replay: {sum(timings.values()):.2f} s")
    return 0


# ---------------------------------------------------------------------------
# Differential analysis
# ---------------------------------------------------------------------------

def _cmd_diff(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.diffing import (
        DiffLoadError,
        DiffThresholds,
        diff_json_dict,
        diff_markdown,
        diff_runs,
        load_run,
    )

    try:
        baseline = load_run(args.baseline, label=args.baseline)
        current = load_run(args.current, label=args.current)
    except DiffLoadError as exc:
        raise SystemExit(str(exc)) from None
    thresholds = DiffThresholds(
        relative=args.threshold, ks=args.ks_threshold
    )
    try:
        result = diff_runs(baseline, current, thresholds)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json_module.dumps(diff_json_dict(result), indent=2))
    else:
        print(diff_markdown(result, top=args.top))
    if args.output:
        path = Path(args.output)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix.lower() == ".json":
            path.write_text(
                json_module.dumps(diff_json_dict(result), indent=2) + "\n",
                encoding="utf-8",
            )
        else:
            path.write_text(
                diff_markdown(result, top=args.top) + "\n", encoding="utf-8"
            )
        print(f"diff written to {path}", file=sys.stderr)
    return EXIT_DIVERGENCE if result.gating() else 0


# ---------------------------------------------------------------------------
# Trace file commands
# ---------------------------------------------------------------------------

def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.trace.io import trace_summary

    try:
        summary = trace_summary(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        if isinstance(value, float):
            value = f"{value:.4f}"
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.trace.io import (
        read_trace,
        sniff_trace_format,
        write_trace,
        write_trace_binary,
    )

    try:
        source_format = sniff_trace_format(args.input)
        packed = read_trace(args.input)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    target = args.to
    if target == "auto":
        target = "text" if source_format == "binary" else "binary"
    if target == "binary":
        write_trace_binary(packed, args.output)
    else:
        write_trace(packed, args.output)
    print(
        f"converted {args.input} ({source_format}, "
        f"{packed.total_requests:,} records) -> {args.output} ({target})"
    )
    return 0


def _cmd_trace_view(args: argparse.Namespace) -> int:
    from repro.obs.trace_view import (
        TraceViewError,
        load_timeline,
        render_timeline_summary,
        summarize_timeline,
    )

    try:
        events = load_timeline(args.path)
    except (OSError, TraceViewError) as exc:
        raise SystemExit(str(exc)) from None
    summary = summarize_timeline(events, top=args.top)
    print(render_timeline_summary(summary))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """The retry/timeout/partial-results flags shared by run and sweep run."""
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-pair wall-clock timeout; a hung pair's worker is killed "
            "and the pair retried (parallel runs only)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "max retries per pair for crashes/timeouts (default 2); "
            "deterministic errors are never retried"
        ),
    )
    parser.add_argument(
        "--allow-failures",
        action="store_true",
        help=(
            "record pairs that stay broken as structured failures and "
            "continue with partial results (exit 0) instead of aborting "
            f"with exit code {EXIT_FAILURES}"
        ),
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """The telemetry flags shared by run and sweep run."""
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print a heartbeat line to stderr (pairs done, pairs/s, ETA, "
            "retried/failed counts)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "sample resource utilization on simulated time into a long-form "
            "CSV (or JSON, by extension); multi-pair runs insert the pair "
            "name before the extension, or write to a {pair} placeholder"
        ),
    )
    parser.add_argument(
        "--timeline-out",
        metavar="PATH",
        help=(
            "record per-transaction spans and fault events as Chrome "
            "trace_event JSON (open in Perfetto / chrome://tracing, or "
            "summarize with 'corona-repro trace view')"
        ),
    )
    parser.add_argument(
        "--samples-out",
        metavar="PATH",
        help=(
            "export each pair's raw per-transaction latency (and open-loop "
            "sojourn) samples as corona-samples/1 JSON; 'corona-repro diff' "
            "reads these for exact percentile and KS-distance comparison"
        ),
    )


def _execution_parent() -> argparse.ArgumentParser:
    """The execution flags ``run`` and ``sweep run`` share, defined once and
    attached to both subparsers via ``parents=``: worker count, verbosity,
    the telemetry flags and the resilience policy flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "override the scenario's/spec's worker count "
            "(1 = serial, 0 = all CPUs)"
        ),
    )
    parent.add_argument("--verbose", action="store_true")
    _add_observability_arguments(parent)
    _add_resilience_arguments(parent)
    return parent


def _observability_from_args(args: argparse.Namespace, base):
    """The scenario's ObservabilitySpec overridden by the CLI flags.

    Returns ``base`` untouched (possibly ``None``) when no telemetry flag
    was given, so flag-free invocations stay bit-identical to before the
    flags existed.
    """
    from dataclasses import replace as dc_replace

    from repro.obs.spec import ObservabilitySpec

    if not (
        args.progress
        or args.metrics_out
        or args.timeline_out
        or args.samples_out
    ):
        return base
    spec = base if base is not None else ObservabilitySpec()
    updates = {}
    if args.progress:
        updates["progress"] = True
    if args.metrics_out:
        updates["metrics_path"] = args.metrics_out
    if args.timeline_out:
        updates["timeline_path"] = args.timeline_out
    if args.samples_out:
        updates["samples_path"] = args.samples_out
    return dc_replace(spec, **updates)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corona-repro",
        description="Reproduction of Corona (ISCA 2008): tables, figures and simulations.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"corona-repro {__version__}",
    )
    parser.add_argument(
        "-v",
        action="count",
        default=0,
        dest="verbosity",
        help="raise the log level (-v = INFO, -vv = DEBUG); applies to "
        "workers too",
    )
    parser.add_argument(
        "-q",
        action="count",
        default=0,
        dest="quiet",
        help="lower the log level (ERROR and up only)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    execution_flags = _execution_parent()

    run_p = subparsers.add_parser(
        "run",
        help="execute a scenario JSON file",
        parents=[execution_flags],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "scenario files:\n"
            "  A scenario file serializes everything a run needs:\n"
            "  configurations (by registry name, plus CoronaConfig\n"
            "  overrides), workloads with parameters and sharing profiles,\n"
            "  the scale tier, coherence settings, worker count and output\n"
            "  sinks; a grid of scenarios is a sweep (`corona-repro sweep`).\n"
            "  Start from `corona-repro scenario init`, check a file with\n"
            "  `corona-repro scenario validate`, and see the registered\n"
            "  names with `corona-repro scenario list`.  User modules named\n"
            "  in the scenario's \"modules\" list can register custom\n"
            "  configurations and workloads (see examples/custom_scenario.py)."
        ),
    )
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument(
        "--output",
        help=(
            "write the markdown report here (JSON/CSV result files are "
            "derived next to it), overriding the scenario's output block"
        ),
    )
    run_p.add_argument(
        "--arrival",
        metavar="JSON",
        help=(
            "open-loop arrival process applied to every workload, e.g. "
            "'{\"process\": \"poisson\", \"rate_rps\": 1e10}' (equivalent "
            "to setting workloads[*].arrival in the scenario file)"
        ),
    )
    run_p.add_argument(
        "--check-determinism",
        action="store_true",
        help=(
            "replay the scenario in two fresh spawned processes (output "
            "sinks and observability stripped) and compare SHA-256 result "
            f"digests; exit code {EXIT_DETERMINISM} on divergence"
        ),
    )
    run_p.set_defaults(handler=_cmd_run)

    lint_p = subparsers.add_parser(
        "lint",
        help="static determinism & unit-flow analysis over the source tree",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "rules:\n"
            "  Determinism rules hunt nondeterminism hazards (set iteration\n"
            "  feeding ordered computation, module-level random.* calls,\n"
            "  wall-clock/env reads outside the harness/obs zone, float\n"
            "  accumulation ordered by set iteration); unit-flow rules\n"
            "  infer units from the _ns/_s/_cycles/_bytes_per_s suffix\n"
            "  convention and flag mixed-unit arithmetic and suffix drops\n"
            "  across binding boundaries.  `lint --rules` lists them.\n"
            "  Suppress one finding with an inline pragma:\n"
            "      x = f()  # lint: ignore[det-set-iter] reason\n"
            "  Grandfathered findings live in lint_baseline.json; the exit\n"
            "  code only reflects *new* findings.  Refresh the baseline\n"
            "  with --update-baseline after deliberate changes."
        ),
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src/repro)",
    )
    lint_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json follows the corona-lint/1 schema)",
    )
    lint_p.add_argument(
        "--baseline", default="lint_baseline.json", metavar="FILE",
        help=(
            "baseline of grandfathered findings (default: "
            "lint_baseline.json; a missing file means an empty baseline)"
        ),
    )
    lint_p.add_argument(
        "--select", nargs="+", metavar="RULE",
        help="run only these rule ids",
    )
    lint_p.add_argument(
        "--ignore", nargs="+", metavar="RULE",
        help="skip these rule ids",
    )
    lint_p.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from the current findings and exit",
    )
    lint_p.add_argument(
        "--rules", action="store_true",
        help="list the registered rules and exit",
    )
    lint_p.set_defaults(handler=_cmd_lint)

    scenario_p = subparsers.add_parser(
        "scenario", help="create, validate and introspect scenario files"
    )
    scenario_sub = scenario_p.add_subparsers(dest="scenario_command", required=True)

    init_p = scenario_sub.add_parser(
        "init", help="write a template scenario file"
    )
    init_p.add_argument(
        "path", nargs="?", default="scenario.json",
        help="where to write the template (default: scenario.json)",
    )
    init_p.add_argument(
        "--configurations", nargs="+", metavar="NAME",
        help="configuration registry names (default: the paper's five)",
    )
    init_p.add_argument(
        "--workloads", nargs="+", metavar="NAME",
        help="workload registry names (default: all seventeen)",
    )
    init_p.add_argument(
        "--scale", choices=("quick", "default", "full", "paper"),
        default="quick",
    )
    init_p.add_argument("--jobs", type=int, default=1)
    init_p.add_argument(
        "--report", help="set the output report path (JSON/CSV derived)"
    )
    init_p.add_argument("--force", action="store_true")
    init_p.set_defaults(handler=_cmd_scenario_init)

    validate_p = scenario_sub.add_parser(
        "validate", help="parse a scenario and check names against registries"
    )
    validate_p.add_argument("path")
    validate_p.set_defaults(handler=_cmd_scenario_validate)

    list_p = scenario_sub.add_parser(
        "list", help="show registered configurations, workloads, sweeps"
    )
    list_p.add_argument(
        "--modules", nargs="+", metavar="MODULE",
        help="import these modules first (to include their registrations)",
    )
    list_p.set_defaults(handler=_cmd_scenario_list)

    sweep_p = subparsers.add_parser(
        "sweep",
        help="run, preview and track declarative parameter sweeps",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "sweep specs:\n"
            "  A sweep spec (corona-sweep/1 JSON) is a base scenario plus\n"
            "  named axes, each writing a list of values into one field\n"
            "  path (e.g. \"workloads[0].params.mean_gap_cycles\" or\n"
            "  \"system.configurations\").  Axes cross as a cartesian\n"
            "  product; an axis with \"zip\" advances in lockstep with the\n"
            "  named axis.  `sweep run SPEC --directory OUT` checkpoints\n"
            "  each completed point to OUT/points.jsonl; re-running the\n"
            "  same spec on the same directory resumes, skipping completed\n"
            "  points.  SPEC is a file path or a registered sweep name\n"
            "  (`corona-repro scenario list` shows those).  Results land as\n"
            "  long-form records -- point id + axis values + every result\n"
            "  field -- in OUT/results.json and OUT/results.csv."
        ),
    )
    sweep_sub = sweep_p.add_subparsers(dest="sweep_command", required=True)

    sweep_run_p = sweep_sub.add_parser(
        "run",
        help="execute a sweep spec (file or registered name)",
        parents=[execution_flags],
    )
    sweep_run_p.add_argument(
        "spec", help="sweep spec JSON file, or a registered sweep name"
    )
    sweep_run_p.add_argument(
        "--directory",
        help="checkpoint/resume directory (also receives default sinks)",
    )
    sweep_run_p.add_argument(
        "--fresh",
        action="store_true",
        help="discard any previous checkpoints instead of resuming",
    )
    sweep_run_p.add_argument(
        "--scale",
        choices=("quick", "default", "full", "paper"),
        default=None,
        help=(
            "pass a scale tier to a *registered* sweep's factory (e.g. "
            "latency-throughput uses it to size the ladder); spec files "
            "carry their own scale"
        ),
    )
    sweep_run_p.set_defaults(handler=_cmd_sweep_run)

    sweep_expand_p = sweep_sub.add_parser(
        "expand", help="print the grid points a sweep spec expands to"
    )
    sweep_expand_p.add_argument(
        "spec", help="sweep spec JSON file, or a registered sweep name"
    )
    sweep_expand_p.set_defaults(handler=_cmd_sweep_expand)

    sweep_status_p = sweep_sub.add_parser(
        "status", help="report a sweep directory's completed/pending points"
    )
    sweep_status_p.add_argument("directory")
    sweep_status_p.add_argument(
        "--timings",
        action="store_true",
        help="also print per-point replay seconds from the checkpoint log",
    )
    sweep_status_p.set_defaults(handler=_cmd_sweep_status)

    diff_p = subparsers.add_parser(
        "diff",
        help="compare two runs and rank their divergences",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Align two run artifacts -- corona-results/1 JSON, result CSVs "
            "(plain or long-form), sweep directories (manifest.json + "
            "points.jsonl), corona-sweep-results/1 JSON, or BENCH_replay "
            "snapshots -- by (point_id, configuration, workload) and compare "
            "every result field: relative-threshold scalar and counter "
            "deltas, flag flips, added/removed/failed pairs, and -- when "
            "both runs carry --samples-out artifacts -- exact per-percentile "
            "deltas plus a two-sample KS distance over the raw latency "
            "samples.  Wall-clock phase timings are reported informationally "
            "and never gate."
        ),
        epilog=(
            "exit codes:\n"
            f"  0  no divergence above threshold\n"
            f"  {EXIT_DIVERGENCE}  at least one gating divergence\n"
        ),
    )
    diff_p.add_argument("baseline", help="baseline run artifact")
    diff_p.add_argument("current", help="current run artifact")
    diff_p.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="relative delta a metric may move before it diverges "
        "(default 0.05)",
    )
    diff_p.add_argument(
        "--ks-threshold",
        type=float,
        default=0.1,
        metavar="DISTANCE",
        help="two-sample KS distance the latency distribution may show "
        "(default 0.1)",
    )
    diff_p.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="truncate the markdown divergence table to the worst N "
        "(default: all)",
    )
    diff_p.add_argument(
        "--json",
        action="store_true",
        help="print the corona-diff/1 JSON document instead of markdown",
    )
    diff_p.add_argument(
        "--output",
        metavar="PATH",
        help="also write the report to PATH (.json extension selects the "
        "JSON document)",
    )
    diff_p.set_defaults(handler=_cmd_diff)

    trace_p = subparsers.add_parser(
        "trace", help="inspect, convert and summarize trace files"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    info_p = trace_sub.add_parser(
        "info", help="print a trace file's header and statistics"
    )
    info_p.add_argument("path")
    info_p.set_defaults(handler=_cmd_trace_info)

    convert_p = trace_sub.add_parser(
        "convert",
        help="convert between the text and packed binary trace formats",
        description=(
            "Convert corona-trace files between the diffable v1 text format "
            "and the packed bin2 binary format (24 bytes/record, loads "
            "without per-record parsing).  Externally generated traces in "
            "either format drop straight into the replay engine."
        ),
    )
    convert_p.add_argument("input")
    convert_p.add_argument("output")
    convert_p.add_argument(
        "--to", choices=("auto", "text", "binary"), default="auto",
        help="target format (auto = the opposite of the input's)",
    )
    convert_p.set_defaults(handler=_cmd_trace_convert)

    view_p = trace_sub.add_parser(
        "view",
        help="summarize a --timeline-out artifact in the terminal",
        description=(
            "Summarize a Chrome trace_event timeline written by "
            "--timeline-out: per-stage span duration histograms, the "
            "slowest transactions, the fault-event table and the recorded "
            "counter tracks -- without leaving the terminal."
        ),
    )
    view_p.add_argument("path", help="TIMELINE.json written by --timeline-out")
    view_p.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest transactions to list (default 10)",
    )
    view_p.set_defaults(handler=_cmd_trace_view)

    subparsers.add_parser("tables", help="print Tables 1-4").set_defaults(
        handler=_cmd_tables
    )

    inventory = subparsers.add_parser(
        "inventory", help="print the optical resource inventory"
    )
    inventory.add_argument("--clusters", type=int, default=64)
    inventory.set_defaults(handler=_cmd_inventory)

    power = subparsers.add_parser("power", help="print the chip power roll-up")
    power.set_defaults(handler=_cmd_power)

    sensitivity = subparsers.add_parser(
        "sensitivity", help="print the photonic-design sensitivity sweeps"
    )
    sensitivity.set_defaults(handler=_cmd_sensitivity)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        getattr(args, "verbosity", 0) - getattr(args, "quiet", 0)
    )
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
