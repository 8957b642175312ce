"""Replay-performance regression tracker.

Runs the replay micro-benchmarks (single-run events/sec on each interconnect
family, a coherence-enabled replay with the timed MOESI directory and
broadcast-bus invalidations, and a Hot Spot replay whose cost is admission
to one saturated memory-controller queue), the system-construction rate
(simulators built and dropped per second), the trace-generation rate of the
default 17-workload matrix at 1,000 requests per trace, and the reduced
evaluation-matrix comparison (serial vs parallel wall-clock), writes the
numbers to
``BENCH_replay.json`` at the repository root, and -- when a committed
baseline exists -- **fails (exit 1) if any throughput metric regressed by
more than 20%**.

Usage::

    python -m scripts.bench_regression                 # measure + compare
    python -m scripts.bench_regression --update-baseline
    python -m scripts.bench_regression --output /tmp/bench.json
    python -m scripts.bench_regression --smoke --json  # CI smoke artifact

The baseline is machine-specific (wall-clock numbers move between hosts), so
re-baseline with ``--update-baseline`` when the hardware changes; the
``history`` list in the JSON keeps the trajectory.

``--smoke`` runs every metric at sharply reduced request counts and **never
gates or touches the baseline**: it exists so CI can prove the benchmark
pipeline end-to-end on shared runners whose absolute numbers are
meaningless.  ``--json`` prints the machine-readable snapshot to stdout
(human-readable progress moves to stderr), which CI uploads as an artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import (  # noqa: E402
    WORKLOADS,
    ScaleSpec,
    Scenario,
    SystemSpec,
    WorkloadSpec,
    build_workload,
    run,
)
from repro.coherence import CoherenceConfig, SharingProfile  # noqa: E402
from repro.core.configs import configuration_by_name  # noqa: E402
from repro.core.system import SystemSimulator  # noqa: E402
from repro.harness.parallel import available_cpus  # noqa: E402
from repro.trace.synthetic import (  # noqa: E402
    hot_spot_workload,
    synthetic_workloads,
    uniform_workload,
)

DEFAULT_BENCH_PATH = REPO_ROOT / "BENCH_replay.json"

#: Allowed slowdown before the script fails (fraction of the baseline).
REGRESSION_TOLERANCE = 0.20

#: Replay micro-benchmark: requests per single run (full / smoke mode).
REPLAY_REQUESTS = 5_000
SMOKE_REPLAY_REQUESTS = 800

#: Hot Spot replay on LMesh/ECM: requests per single run (full / smoke mode).
HOTSPOT_REQUESTS = 2_000
SMOKE_HOTSPOT_REQUESTS = 400

#: Simulators built and dropped per construction round (full / smoke mode).
BUILD_SYSTEMS = 20
SMOKE_BUILD_SYSTEMS = 5

#: Requests per trace when generating the default matrix's workloads (full
#: / smoke mode).  At 1,000 requests a trace spreads over most of the 1,024
#: threads, so generation cost is per thread as much as per request.
GENERATE_REQUESTS = 1_000
SMOKE_GENERATE_REQUESTS = 300

#: Reduced matrix mirroring benchmarks/bench_parallel_runner.py.
MATRIX_SCALE = ScaleSpec(synthetic_requests=3_000)
SMOKE_MATRIX_SCALE = ScaleSpec(synthetic_requests=600)
MATRIX_CONFIGURATIONS = ("LMesh/ECM", "XBar/OCM")


#: Sharing profile of the coherence-enabled replay measurement.
COHERENT_SHARING = SharingProfile(fraction=0.3)


def _replay_best_seconds(
    configuration_name: str, trace, window: int, rounds: int, coherence=None
):
    best = float("inf")
    events = 0
    for _ in range(rounds):
        simulator = SystemSimulator(
            configuration_by_name(configuration_name),
            window_depth=window,
            coherence=coherence,
        )
        started = time.perf_counter()
        simulator.run(trace)
        best = min(best, time.perf_counter() - started)
        events = simulator._simulator.events_executed
    return best, events


def _build_best_seconds(configuration_name: str, systems: int, rounds: int) -> float:
    """Best of ``rounds`` wall-clock times to build and drop ``systems``
    simulators.  The cyclic collector stays enabled, so the time includes
    collecting any simulator that reference counting cannot free."""
    configuration = configuration_by_name(configuration_name)
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(systems):
            SystemSimulator(configuration)
        best = min(best, time.perf_counter() - started)
    return best


def _generate_best_seconds(requests: int, rounds: int):
    """Best of ``rounds`` wall-clock times to generate one trace of each of
    the default matrix's workloads; returns ``(traces, seconds)``."""
    workloads = [build_workload(name) for name in WORKLOADS.default_names()]
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for workload in workloads:
            workload.generate_packed(seed=1, num_requests=requests)
        best = min(best, time.perf_counter() - started)
    return len(workloads), best


def _scenario(smoke: bool = False) -> Scenario:
    """The reduced matrix: two configurations x the six synthetic workloads."""
    return Scenario(
        name="bench-regression",
        system=SystemSpec(configurations=MATRIX_CONFIGURATIONS),
        workloads=tuple(WorkloadSpec(name=w.name) for w in synthetic_workloads()),
        scale=SMOKE_MATRIX_SCALE if smoke else MATRIX_SCALE,
    )


def measure(rounds: int = 3, smoke: bool = False) -> Dict[str, float]:
    """Collect every tracked metric; higher is better for ``*_per_s``.

    ``smoke`` shrinks every request count so the full pipeline finishes in
    seconds; smoke numbers are for plumbing verification, not comparison.
    The matrix runs' per-phase wall-clock breakdown lands in the
    module-level ``LAST_PHASE_TIMINGS`` (serial and parallel sections), so
    the written snapshot can *explain* a regression, not just detect it.
    """
    requests = SMOKE_REPLAY_REQUESTS if smoke else REPLAY_REQUESTS
    workload = uniform_workload()
    trace = workload.generate_packed(seed=1, num_requests=requests)
    metrics: Dict[str, float] = {}

    for label, configuration in (
        ("xbar_ocm", "XBar/OCM"),
        ("lmesh_ecm", "LMesh/ECM"),
        ("hmesh_ocm", "HMesh/OCM"),
    ):
        seconds, events = _replay_best_seconds(
            configuration, trace, workload.window, rounds
        )
        metrics[f"replay_{label}_events_per_s"] = events / seconds
        metrics[f"replay_{label}_requests_per_s"] = requests / seconds

    # Coherence-enabled replay: a sharing-tagged trace with the timed MOESI
    # directory on the Corona design (broadcast-bus invalidations live).
    coherent_workload = uniform_workload(sharing=COHERENT_SHARING)
    coherent_trace = coherent_workload.generate_packed(
        seed=1, num_requests=requests
    )
    seconds, events = _replay_best_seconds(
        "XBar/OCM",
        coherent_trace,
        coherent_workload.window,
        rounds,
        coherence=CoherenceConfig(),
    )
    metrics["replay_xbar_ocm_coherent_events_per_s"] = events / seconds
    metrics["replay_xbar_ocm_coherent_requests_per_s"] = requests / seconds

    # Hot Spot on the electrical baseline: every thread targets one home
    # controller, whose queue books far more departures than it has slots,
    # so the memory-controller admission path sets the replay's cost.
    hotspot_requests = SMOKE_HOTSPOT_REQUESTS if smoke else HOTSPOT_REQUESTS
    hotspot_workload = hot_spot_workload()
    hotspot_trace = hotspot_workload.generate_packed(
        seed=1, num_requests=hotspot_requests
    )
    seconds, events = _replay_best_seconds(
        "LMesh/ECM", hotspot_trace, hotspot_workload.window, rounds
    )
    metrics["replay_lmesh_ecm_hotspot_events_per_s"] = events / seconds
    metrics["replay_lmesh_ecm_hotspot_requests_per_s"] = hotspot_requests / seconds

    # System construction: the matrix builds one fresh simulator per pair.
    systems = SMOKE_BUILD_SYSTEMS if smoke else BUILD_SYSTEMS
    for label, configuration in (("xbar_ocm", "XBar/OCM"), ("lmesh_ecm", "LMesh/ECM")):
        seconds = _build_best_seconds(configuration, systems, rounds)
        metrics[f"build_{label}_systems_per_s"] = systems / seconds

    # Trace generation for the default matrix, the cost repro.api.run pays
    # once per workload before replaying it on every configuration.
    traces, seconds = _generate_best_seconds(
        SMOKE_GENERATE_REQUESTS if smoke else GENERATE_REQUESTS, rounds
    )
    metrics["generate_matrix_traces_per_s"] = traces / seconds

    scenario = _scenario(smoke)
    pairs = len(scenario.system.configurations) * len(scenario.workloads)
    started = time.perf_counter()
    serial = run(scenario, jobs=1)
    serial_seconds = time.perf_counter() - started
    metrics["matrix_serial_seconds"] = serial_seconds
    metrics["matrix_serial_pairs_per_s"] = pairs / serial_seconds

    jobs = min(4, available_cpus())
    started = time.perf_counter()
    parallel = run(scenario, jobs=jobs)
    parallel_seconds = time.perf_counter() - started
    metrics["matrix_parallel_seconds"] = parallel_seconds
    metrics["matrix_parallel_jobs"] = jobs
    metrics["matrix_parallel_pairs_per_s"] = pairs / parallel_seconds
    metrics["matrix_dispatch_seconds"] = parallel.timings["phases"]["dispatch"]
    LAST_PHASE_TIMINGS.clear()
    LAST_PHASE_TIMINGS.update(
        {
            "matrix_serial": dict(serial.timings["phases"]),
            "matrix_parallel": dict(parallel.timings["phases"]),
        }
    )
    return metrics


#: Per-phase wall-clock breakdown of the matrix runs of the last
#: :func:`measure` call (``{"matrix_serial": {...}, "matrix_parallel":
#: {...}}``); written into the snapshot's ``phase_timings`` section.
LAST_PHASE_TIMINGS: Dict[str, Dict[str, float]] = {}


def compare(baseline: Dict[str, float], current: Dict[str, float]):
    """Return (ok, lines): throughput metrics may not drop >20%.

    The comparison itself lives in the diff engine
    (:func:`repro.diffing.metric_deltas`, the same codepath behind
    ``corona-repro diff`` on bench snapshots); this wrapper keeps the
    historical line format and the (ok, lines) contract.
    """
    from repro.diffing import metric_deltas

    lines = []
    ok = True
    for delta in metric_deltas(baseline, current, REGRESSION_TOLERANCE):
        new = delta.current
        if not delta.has_baseline:
            lines.append(f"  {delta.metric:<38} {new:14,.0f}  (no baseline)")
            continue
        flag = ""
        if delta.regressed:
            ok = False
            flag = "  REGRESSION"
        lines.append(
            f"  {delta.metric:<38} {new:14,.0f}  vs {delta.baseline:14,.0f}  "
            f"({delta.ratio:5.2f}x){flag}"
        )
    return ok, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_BENCH_PATH,
        help="benchmark JSON path (default: BENCH_replay.json at the repo root)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the baseline with this run instead of comparing",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "reduced request counts, one round, no gating: verifies the "
            "benchmark pipeline without comparing against (or ever writing) "
            "the baseline"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help=(
            "print the snapshot as JSON on stdout (progress moves to "
            "stderr); for CI artifacts"
        ),
    )
    args = parser.parse_args(argv)

    def say(message: str) -> None:
        print(message, file=sys.stderr if args.json_output else sys.stdout)

    rounds = 1 if args.smoke else args.rounds
    mode = "smoke" if args.smoke else "full"
    say(f"measuring replay throughput ({mode} mode, {rounds} round(s) per config)...")
    current = measure(rounds=rounds, smoke=args.smoke)
    for key in sorted(current):
        say(f"  {key:<38} {current[key]:14,.2f}")

    snapshot = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "mode": mode,
        "metrics": current,
        "phase_timings": {
            section: {phase: round(value, 4) for phase, value in phases.items()}
            for section, phases in LAST_PHASE_TIMINGS.items()
        },
    }

    if args.smoke:
        # Smoke numbers come from throwaway request counts on arbitrary
        # hardware: never gate on them and never touch the baseline.
        if args.json_output:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        say("\nOK: smoke run complete (baseline untouched, no gating)")
        return 0

    existing = None
    if args.output.exists():
        existing = json.loads(args.output.read_text())

    if args.json_output:
        print(json.dumps(snapshot, indent=2, sort_keys=True))

    if existing is not None and not args.update_baseline:
        say("\ncomparing against committed baseline:")
        ok, lines = compare(existing["metrics"], current)
        say("\n".join(lines))
        if not ok:
            say(
                f"\nFAIL: throughput regressed more than "
                f"{REGRESSION_TOLERANCE:.0%} vs {args.output}"
            )
            return 1
        say("\nOK: no throughput regression beyond tolerance")
        return 0

    history = []
    if existing is not None:
        history = existing.get("history", [])
        # Each history entry carries the environment it measured on, so a
        # trajectory spanning interpreter or hardware changes stays
        # interpretable (older entries predate some of these fields).
        history.append(
            {
                "timestamp": existing.get("timestamp"),
                "python": existing.get("python"),
                "platform": existing.get("platform"),
                "cpus": existing.get("cpus"),
                "metrics": existing.get("metrics"),
            }
        )
        history = history[-10:]
    snapshot["history"] = history
    args.output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    say(f"\nbaseline written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
