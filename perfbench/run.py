"""Layered replay benchmark of the Corona reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uniform-xbar --seed 1 --seconds 10 --trace 0

Runs one workload (``uniform-xbar``, ``hotspot-ecm``, ``coherent-mixed`` or
``matrix-85``; see README.md) for at least ``--seconds`` seconds and at least
three repetitions, checks every repetition's results, and prints a report
followed, as the last line of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced repetitions).
``--trace 1`` adds one separate traced repetition, with span wrappers around
every layer entry point, and reports the per-layer metrics.  Everything the
run measured, with quartiles, sample counts and provenance, is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; traced spans go to
``perfbench/out/<workload>.spans.json.gz``.

Result digests and work counters are compared with ``perfbench/baseline.json``
(same workload and seed); ``--record`` stores this run's values there.
``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from calibrate import host_factor

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BASELINE = BENCH_DIR / "baseline.json"

#: A run repeats the timed section at least this often, whatever --seconds.
MIN_REPETITIONS = 3
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 5

END_TO_END = {
    "replay_rps": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.generate_s": "s",
    "trace.records": "count",
    "harness.trace_generation_s": "s",
    "harness.replay_s": "s",
    "harness.retries": "count",
    "sim.run_s": "s",
    "sim.events": "count",
    "core.self_s": "s",
    "core.self_ns_per_event": "ns",
    "core.requests": "count",
    "core.mshr_wait_ns": "ns",
    "network.transfer_calls": "count",
    "network.transfer_s": "s",
    "network.multicast_calls": "count",
    "network.multicast_s": "s",
    "network.messages": "count",
    "network.token_wait_ns": "ns",
    "memory.access_calls": "count",
    "memory.access_s": "s",
    "memory.admission_waits": "count",
    "memory.admission_wait_ratio": "ratio",
    "memory.max_occupancy": "count",
    "memory.occupancy_over_capacity": "ratio",
    "memory.queueing_ns": "ns",
    "coherence.process_miss_calls": "count",
    "coherence.process_miss_s": "s",
    "coherence.writeback_calls": "count",
    "coherence.writeback_s": "s",
    "coherence.invalidations": "count",
    "coherence.broadcasts": "count",
    "coherence.unicasts": "count",
    "coherence.c2c": "count",
    "api.sink_write_s": "s",
    "api.sink_bytes": "bytes",
    "bench.trace_overhead": "ratio",
}

#: The deterministic counter plane: exact per seed, compared with the baseline.
COUNTERS = (
    "trace.records",
    "sim.events",
    "core.requests",
    "network.transfer_calls",
    "network.multicast_calls",
    "network.messages",
    "memory.access_calls",
    "memory.admission_waits",
    "memory.max_occupancy",
    "coherence.process_miss_calls",
    "coherence.writeback_calls",
    "coherence.invalidations",
    "coherence.broadcasts",
    "coherence.unicasts",
    "coherence.c2c",
)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def pair_digests(results) -> Dict[Tuple[str, str], str]:
    """sha256 of every result's exact field values, per (configuration, workload)."""
    return {
        (result.configuration, result.workload): hashlib.sha256(
            json.dumps(result.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        for result in results
    }


def workload_digest(digests: Dict[Tuple[str, str], str]) -> str:
    joined = "\n".join(f"{c}|{w}|{d}" for (c, w), d in sorted(digests.items()))
    return hashlib.sha256(joined.encode()).hexdigest()


def check(expected, outcome, reference) -> Tuple[int, List[str], dict]:
    """Check one repetition: (operations attempted, failure messages, digests).

    Every expected pair must be present, replay its whole trace and, once a
    reference repetition exists, be bit-identical to it.
    """
    if outcome is None:
        return len(expected), [f"{c} x {w}: raised" for c, w in expected], {}
    digests = pair_digests(outcome.results)
    counts = {(r.configuration, r.workload): r.num_requests for r in outcome.results}
    failures = []
    for pair, records in expected.items():
        label = f"{pair[0]} x {pair[1]}"
        if pair not in digests:
            failures.append(f"{label}: missing")
        elif counts[pair] != records:
            failures.append(f"{label}: {counts[pair]} requests, trace has {records}")
        elif reference is not None and reference.get(pair) != digests[pair]:
            failures.append(f"{label}: differs from the first repetition")
    unexpected = sorted(set(digests) - set(expected))
    failures.extend(f"{c} x {w}: unexpected pair" for c, w in unexpected)
    return len(expected) + len(unexpected), failures, digests


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of a timing."""
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def median_of(rows: Sequence[dict], key: str) -> float:
    values = [row[key] for row in rows if key in row]
    return statistics.median(values) if values else 0.0


def harness_row(scenario_result) -> Dict[str, float]:
    """Harness and sink figures from the program's own timings, failures and sinks."""
    phases = scenario_result.timings.get("phases", {})
    return {
        "harness.trace_generation_s": phases.get("trace_generation", 0.0),
        "harness.replay_s": phases.get("replay", 0.0),
        "harness.retries": sum(f.attempts - 1 for f in scenario_result.failures),
        "api.sink_write_s": phases.get("sink_write", 0.0),
        "api.sink_bytes": sum(path.stat().st_size for path in scenario_result.written.values()),
    }


def timed_call(timed):
    """Run ``timed`` once: (outcome or None if it raised, wall s, CPU s)."""
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        outcome = timed()
    except Exception:  # a failed repetition is reported, not fatal
        traceback.print_exc()
        outcome = None
    return outcome, time.perf_counter() - wall0, time.process_time() - cpu0


def kernel_gap() -> List[Tuple[float, float]]:
    """(wall, CPU) seconds of KERNELS_PER_GAP calibration kernels, timed in a
    fresh interpreter so they never add to this process's peak memory."""
    done = subprocess.run([sys.executable, str(BENCH_DIR / "calibrate.py")],
                          capture_output=True, text=True, timeout=120, check=True)
    return [tuple(map(float, line.split())) for line in done.stdout.splitlines()]


def repeat(prepared, seconds: float):
    """Run the timed section until ``seconds`` passed and MIN_REPETITIONS ran.

    Calibration kernels run before every repetition and after the last one;
    each repetition's timings are then scaled by host_factor (calibrate.py)
    of the kernels right before and after it, once for wall and once for
    CPU time.
    """
    rows, outcomes, gaps = [], [], []
    attempted, failures, reference = 0, [], None
    started = time.perf_counter()
    while len(outcomes) < MIN_REPETITIONS or time.perf_counter() - started < seconds:
        gaps.append(kernel_gap())
        outcome, wall, cpu = timed_call(prepared.prepare())
        outcomes.append(outcome)
        count, bad, digests = check(prepared.expected, outcome, reference)
        attempted += count
        failures.extend(bad)
        if outcome is None:
            continue
        if reference is None and not bad:
            reference = digests
        row = {"raw_wall_s": wall, "raw_cpu_s": cpu, "gap": len(gaps) - 1}
        if outcome.scenario_result is not None:
            row.update(harness_row(outcome.scenario_result))
        rows.append(row)
    gaps.append(kernel_gap())
    for row in rows:
        around = gaps[row["gap"]] + gaps[row["gap"] + 1]
        row["host_factor"] = host_factor(wall for wall, _ in around)
        row["wall_s"] = row["raw_wall_s"] * row["host_factor"]
        row["cpu_s"] = row["raw_cpu_s"] * host_factor(cpu for _, cpu in around)
        row["replay_rps"] = prepared.requests / row["wall_s"]
    kernels = [kernel for gap in gaps for kernel in gap]
    return rows, outcomes, attempted, failures, reference, kernels


def setup_seconds(workload: str, seed: int, tiny: bool) -> List[float]:
    """SETUP_PROBES fresh-process set-ups of ``workload`` (probe.py), normalized."""
    command = [sys.executable, str(BENCH_DIR / "probe.py"), "--workload", workload,
               "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        setup_s, *kernel_s = map(float, done.stdout.split())
        setups.append(setup_s * host_factor(kernel_s))
    return setups


def stop_children() -> None:
    """Stop and reap every ``multiprocessing`` helper the program started.

    A worker pool, or the resource tracker that the first shared-memory
    block starts, would otherwise outlive this process; each is stopped
    here and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(workload, seed: int, tiny: bool, scratch: Path):
    """One traced repetition (set-up included, so trace generation is traced).

    Returns (tracer, prepared, outcome, host-normalized wall seconds).
    """
    from tracing import Tracer

    kernels = [wall for wall, _ in kernel_gap()]
    with Tracer() as tracer:
        prepared = workload.setup(seed, tiny, scratch)
        outcome, wall, _ = timed_call(prepared.prepare())
    if outcome is None:
        raise RuntimeError("the traced repetition raised")
    kernels.extend(wall for wall, _ in kernel_gap())
    return tracer, prepared, outcome, wall * host_factor(kernels)


def layer_metrics(tracer, outcome, traced_wall: float, rows) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    layers = tracer.layer_times()
    results = outcome.results
    events = tracer.events
    accesses = layers["memory.access_calls"]
    metrics = {
        "trace.generate_s": layers["trace.generate_s"],
        "trace.records": sum(tracer.records.values()),
        "sim.run_s": layers["sim.run_s"],
        "sim.events": events,
        "core.self_s": layers["core.self_s"],
        "core.self_ns_per_event": layers["core.self_s"] / events * 1e9 if events else 0.0,
        "core.requests": sum(r.num_requests for r in results),
        "core.mshr_wait_ns": (
            tracer.mshr_wait_s / tracer.mshr_acquisitions * 1e9
            if tracer.mshr_acquisitions else 0.0
        ),
        "network.transfer_calls": layers["network.transfer_calls"],
        "network.transfer_s": layers["network.transfer_s"],
        "network.multicast_calls": layers["network.multicast_calls"],
        "network.multicast_s": layers["network.multicast_s"],
        "network.messages": sum(r.network_messages for r in results),
        "network.token_wait_ns": (
            statistics.mean(r.average_token_wait_s for r in results) * 1e9 if results else 0.0
        ),
        "memory.access_calls": accesses,
        "memory.access_s": layers["memory.access_s"],
        "memory.admission_waits": tracer.admission_waits,
        "memory.admission_wait_ratio": tracer.admission_waits / accesses if accesses else 0.0,
        "memory.max_occupancy": tracer.max_occupancy,
        "memory.occupancy_over_capacity": (
            tracer.max_occupancy / tracer.queue_capacity if tracer.queue_capacity else 0.0
        ),
        "memory.queueing_ns": tracer.memory_queueing_s / accesses * 1e9 if accesses else 0.0,
        "coherence.process_miss_calls": layers["coherence.process_miss_calls"],
        "coherence.process_miss_s": layers["coherence.process_miss_s"],
        "coherence.writeback_calls": layers["coherence.writeback_calls"],
        "coherence.writeback_s": layers["coherence.writeback_s"],
        "coherence.invalidations": sum(r.invalidations_sent for r in results),
        "coherence.broadcasts": sum(r.invalidation_broadcasts for r in results),
        "coherence.unicasts": sum(r.invalidation_unicasts for r in results),
        "coherence.c2c": sum(r.cache_to_cache_transfers for r in results),
    }
    for name in PER_LAYER:
        if name.startswith(("harness.", "api.")):
            metrics[name] = median_of(rows, name)
    metrics["bench.trace_overhead"] = traced_wall / median_of(rows, "wall_s")
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def fidelity(results) -> Dict[str, Dict[str, float]]:
    """Measured vs paper Section-5 geomeans, with |measured/paper - 1|."""
    from repro.harness.figures import PAPER_SPEEDUP_SUMMARY, speedup_summary

    synthetic = sorted({r.workload for r in results if r.is_synthetic})
    splash = sorted({r.workload for r in results if not r.is_synthetic})
    measured = speedup_summary(results, synthetic, splash)
    return {
        key: {"measured": measured[key], "paper": paper,
              "gap": abs(measured[key] / paper - 1.0)}
        for key, paper in PAPER_SPEEDUP_SUMMARY.items()
        if key in measured
    }


def provenance(seed: int, trace_records: Dict[str, int]) -> Dict[str, object]:
    """Where the numbers came from: code, host and inputs."""
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit, dirty = None, None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "trace_records": trace_records,
    }


def compare_baseline(workload: str, seed: int, record: dict) -> List[str]:
    """Name every digest or counter that differs from the recorded baseline."""
    if not BASELINE.exists():
        return ["no baseline file"]
    entry = json.loads(BASELINE.read_text()).get(workload, {}).get(str(seed))
    if entry is None:
        return [f"no baseline for {workload} seed {seed}"]
    lines = []
    for pair, digest in record["pairs"].items():
        old = entry["pairs"].get(pair)
        if old != digest:
            lines.append(f"result changed: {pair} ({old} -> {digest})")
    lines.extend(f"pair no longer produced: {pair}" for pair in entry["pairs"]
                 if pair not in record["pairs"])
    for name, value in record.get("counters", {}).items():
        old = entry.get("counters", {}).get(name)
        if old is not None and old != value:
            lines.append(f"counter changed: {name} {old} -> {value}")
    return lines


def store_baseline(workload: str, seed: int, record: dict) -> None:
    data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    entry = data.setdefault(workload, {}).setdefault(str(seed), {})
    entry.update(record)
    BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def print_shares(per_layer: Dict[str, dict], results) -> None:
    """Each layer's share of ``sim.run_s``, and coherent misses per configuration."""
    value = {name: row["value"] for name, row in per_layer.items()}
    below = {
        "core": value["core.self_s"],
        "network": value["network.transfer_s"] + value["network.multicast_s"],
        "memory": value["memory.access_s"],
        "coherence": value["coherence.process_miss_s"] + value["coherence.writeback_s"],
    }
    if value["sim.run_s"] > 0:
        print("layer shares of sim.run_s: " + ", ".join(
            f"{layer} {seconds / value['sim.run_s']:.1%}" for layer, seconds in below.items()
        ))
    coherent = [r for r in results if r.coherence_enabled]
    if coherent:
        print("coherent misses per configuration: " + ", ".join(
            f"{r.configuration} {r.shared_requests}" for r in coherent
        ))


def print_table(title: str, rows: Dict[str, dict], units: Dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        if name not in rows:
            continue
        row = rows[name]
        spread = ""
        if "n" in row:
            spread = f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]"
        print(f"  {name:32s} {row['value']:>16.6g} {unit}{spread}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def measure(args, scratch: Path) -> Tuple[dict, dict]:
    """Run the workload; returns (the JSON line, the full results record)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    prepared = workload.setup(args.seed, args.tiny, scratch)
    rows, outcomes, attempted, failures, reference, kernels = repeat(prepared, args.seconds)
    end_to_end = {
        "replay_rps": summary(row["replay_rps"] for row in rows),
        "cpu_s": summary(row["cpu_s"] for row in rows),
        "peak_rss_mb": {"value": peak_rss_mb()},
    }
    host = {
        "raw_wall_s": summary(row["raw_wall_s"] for row in rows),
        "raw_cpu_s": summary(row["raw_cpu_s"] for row in rows),
        "host_factor": summary(row["host_factor"] for row in rows),
        "kernel_s": {"value": [wall for wall, _ in kernels]},
    }
    first = next((o for o in outcomes if o is not None), None)

    per_layer, counters = {}, {}
    if args.trace:
        tracer, traced_prepared, outcome, traced_wall = traced_run(
            workload, args.seed, args.tiny, scratch
        )
        count, bad, _ = check(prepared.expected, outcome, reference)
        attempted += count
        failures.extend(f"traced run: {line}" for line in bad)
        if tracer.records != traced_prepared.trace_records:
            failures.append(f"traced run: generated {tracer.records}, "
                            f"expected {traced_prepared.trace_records}")
        per_layer = {k: {"value": v} for k, v in
                     layer_metrics(tracer, outcome, traced_wall, rows).items()}
        counters = {name: per_layer[name]["value"] for name in COUNTERS}
        from tracing import write_spans

        write_spans(tracer, OUT / f"{args.workload}.spans.json.gz")
        first = first or outcome
    end_to_end["setup_s"] = summary(setup_seconds(args.workload, args.seed, args.tiny))

    digests = pair_digests(first.results) if first is not None else {}
    record = {
        "digest": workload_digest(digests),
        "pairs": {f"{c} x {w}": d[:16] for (c, w), d in sorted(digests.items())},
    }
    if counters:
        record["counters"] = counters
    is_matrix = first is not None and first.scenario_result is not None
    fidelity_table = fidelity(first.results) if is_matrix else {}

    print(f"perfbench {args.workload}  seed={args.seed}  trace={args.trace}"
          f"{'  (tiny)' if args.tiny else ''}")
    info = provenance(args.seed, prepared.trace_records)
    for key, value in info.items():
        print(f"  {key}: {value}")
    print_table(f"end-to-end (median over {len(rows)} repetitions, host-normalized)",
                end_to_end, END_TO_END)
    print_table("host (raw timings per repetition; host_factor scales them)", host,
                {"raw_wall_s": "s", "raw_cpu_s": "s", "host_factor": "ratio"})
    if per_layer:
        print_table("per-layer (one traced repetition)", per_layer, PER_LAYER)
        print_shares(per_layer, outcome.results)
    if fidelity_table:
        print(f"fidelity at benchmark scale ({prepared.requests // len(prepared.expected)} "
              f"requests per pair, not the quick scale):")
        print(f"  {'geomean':32s} {'measured':>9s} {'paper':>7s} {'gap':>7s}")
        for key, row in fidelity_table.items():
            print(f"  {key:32s} {row['measured']:9.3f} {row['paper']:7.2f} {row['gap']:7.1%}")
    failed = len(failures)
    print(f"correctness: {attempted} operations, {failed} failed"
          f" (failed_fraction {failed / attempted:.4g}), digest {record['digest'][:16]}")
    for line in failures:
        print(f"  FAILED {line}")
    if not args.tiny:
        if args.record:
            store_baseline(args.workload, args.seed, record)
            print(f"baseline recorded in {BASELINE.name}")
        else:
            for line in compare_baseline(args.workload, args.seed, record) or ["matches"]:
                print(f"baseline: {line}")

    chosen = PER_LAYER if args.trace else END_TO_END
    source = per_layer if args.trace else end_to_end
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name]["value"], "unit": unit}
                    for name, unit in chosen.items()},
    }
    full = {
        "workload": args.workload, "trace": args.trace, "tiny": args.tiny,
        "provenance": info, "end_to_end": end_to_end, "host": host, "per_layer": per_layer,
        "repetitions": rows, "fidelity": fidelity_table, "failures": failures,
        **record,
    }
    return line, full


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--record", action="store_true",
                        help="store digests and counters in baseline.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT))
    # Temporary files of the program stay in the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        line, full = measure(args, scratch)
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(full, indent=1, default=str) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
