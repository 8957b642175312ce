"""End-to-end smoke checks of the corona-repro CLI and the bench pipeline.

Run from the repository root, with no arguments::

    python -m scripts.smoke

Seven sections -- scenario, sweep, chaos, obs, saturation, diff and bench --
each run in their own directory under ``smoke-out/``, which is wiped first (a
stale sweep directory would turn a first ``sweep run`` into a resume).  Each
``corona-repro`` call is a subprocess (``python -m repro.cli``, with ``src``
prepended to the inherited ``PYTHONPATH``), so exit codes, stderr progress
and the ``CORONA_CHAOS`` hook are exercised as a user meets them, and every
check is an assertion that names what failed.  A failed section does not
stop the others; the script prints each section's seconds and exits 1 if
any section failed.  It needs nothing outside the standard library and
``src/``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
OUT = REPO_ROOT / "smoke-out"
_INHERITED_PATH = os.environ.get("PYTHONPATH")
ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC) + (os.pathsep + _INHERITED_PATH if _INHERITED_PATH else ""),
}

GAP_AXIS = {
    "name": "gap",
    "path": "workloads[0].params.mean_gap_cycles",
    "values": [20.0, 40.0],
}


class SmokeFailure(AssertionError):
    """A failed check; the message names it."""


def check(condition, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def expect(needle: str, text: str, what: str) -> None:
    check(needle in text, f"{what}: no {needle!r} in\n{text[-2000:]}")


def exists(path: Path) -> None:
    check(path.is_file(), f"{path.relative_to(OUT)} was not written")


def python(cwd: Path, *argv: str, code: int = 0, chaos: str = ""):
    """Run ``python ARGV`` in ``cwd`` (``CORONA_CHAOS=chaos`` if given) and
    check its exit code; return the completed process."""
    env = {**ENV, "CORONA_CHAOS": chaos} if chaos else ENV
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=900,
    )
    check(
        done.returncode == code,
        f"`python {' '.join(argv)}` exited {done.returncode}, expected "
        f"{code}\n{done.stdout[-2000:]}{done.stderr[-2000:]}",
    )
    return done


def cli(cwd: Path, *args: str, code: int = 0, chaos: str = ""):
    return python(cwd, "-m", "repro.cli", *args, code=code, chaos=chaos)


def write_sweep(path: Path, name: str, configuration: str, *axes: dict) -> None:
    """A ``corona-sweep/1`` spec: Uniform at 600 requests, seed 1."""
    spec = {
        "format": "corona-sweep/1",
        "name": name,
        "base": {
            "system": {"configurations": [configuration]},
            "workloads": [{"name": "Uniform", "num_requests": 600}],
            "scale": {"seed": 1},
        },
        "axes": list(axes),
    }
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def read_csv(path: Path):
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def scenario(d: Path) -> None:
    cli(d, "scenario", "init", "scenario.json", "--configurations", "XBar/OCM",
        "--workloads", "Uniform", "--jobs", "2")
    cli(d, "scenario", "validate", "scenario.json")
    cli(d, "run", "scenario.json", "--jobs", "2", "--output", "scenario-report.md")
    for name in ("scenario-report.md", "scenario-report.results.json",
                 "scenario-report.results.csv"):
        exists(d / name)
    # A malformed override fails at load with its full field path, in a
    # scenario file and in a sweep spec's base alike.
    bad = {"system": {"overrides": {"cluster": {"l2_mshrs": 2.5}}}}
    (d / "bad.json").write_text(json.dumps(bad), encoding="utf-8")
    for args in (("scenario", "validate", "bad.json"), ("run", "bad.json")):
        done = cli(d, *args, code=1)
        expect("system.overrides.cluster.l2_mshrs", done.stderr, " ".join(args))
        check("Traceback" not in done.stderr, f"{' '.join(args)} printed a traceback")
    (d / "bad-sweep.json").write_text(
        json.dumps({"base": bad, "axes": [GAP_AXIS]}), encoding="utf-8"
    )
    done = cli(d, "sweep", "expand", "bad-sweep.json", code=1)
    expect("base.system.overrides.cluster.l2_mshrs", done.stderr, "sweep expand")
    check("Traceback" not in done.stderr, "sweep expand printed a traceback")


def sweep(d: Path) -> None:
    write_sweep(d / "sweep.json", "ci-grid", "LMesh/ECM", GAP_AXIS, {
        "name": "configuration",
        "path": "system.configurations",
        "values": [["LMesh/ECM"], ["XBar/OCM"]],
    })
    cli(d, "sweep", "expand", "sweep.json")
    cli(d, "sweep", "run", "sweep.json", "--directory", "sweep-out", "--jobs", "2")
    out = d / "sweep-out"
    for name in ("manifest.json", "points.jsonl", "results.json",
                 "results.csv", "report.md"):
        exists(out / name)
    header, *rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    check(header.startswith("point_id,axis.gap,axis.configuration,"),
          f"sweep results.csv header is {header[:60]!r}...")
    check(len(rows) == 4, f"sweep results.csv has {len(rows)} rows, expected 4")
    expect("4/4 points complete", cli(d, "sweep", "status", "sweep-out").stdout,
           "sweep status")
    rerun = cli(d, "sweep", "run", "sweep.json", "--directory", "sweep-out")
    expect("4 completed points skipped", rerun.stdout, "the sweep rerun")


def chaos(d: Path) -> None:
    write_sweep(d / "chaos-sweep.json", "chaos-grid", "XBar/OCM", {
        "name": "loss",
        "path": "faults.token_loss_rate",
        "values": [0.0, 0.02, 0.05, 0.1],
    })
    # Crashed workers are respawned and their pairs retried.
    crashed = cli(d, "sweep", "run", "chaos-sweep.json", "--directory",
                  "chaos-out", "--jobs", "2",
                  chaos="crash=1.0,attempts=1,seed=5").stdout
    expect("pair attempt(s) were retried", crashed, "the crashed sweep run")
    expect("4 records from 4 points", crashed, "the crashed sweep run")
    expect("4/4 points complete", cli(d, "sweep", "status", "chaos-out").stdout,
           "status after the crashed run")
    # Fault counters flow into the CSV sink.
    lost = {
        row["axis.loss"]: int(row["fault_tokens_lost"])
        for row in read_csv(d / "chaos-out" / "results.csv")
    }
    check(lost["0.0"] == 0, f"tokens lost at loss 0.0: {lost}")
    check(lost["0.1"] > 0, f"no tokens lost at loss 0.1: {lost}")
    # Persistent failures checkpoint, then heal on resume.
    failed = cli(d, "sweep", "run", "chaos-sweep.json", "--directory",
                 "chaos-fail", "--jobs", "2", "--retries", "1", code=3,
                 chaos="error=0.6,attempts=99,seed=3").stdout
    expect("retry only the failed points", failed, "the failing sweep run")
    exists(d / "chaos-fail" / "failures.csv")
    expect("failed", (d / "chaos-fail" / "points.jsonl").read_text(encoding="utf-8"),
           "chaos-fail/points.jsonl")
    expect("resilience:", cli(d, "sweep", "status", "chaos-fail").stdout,
           "status after the failing run")
    resumed = cli(d, "sweep", "run", "chaos-sweep.json", "--directory",
                  "chaos-fail", "--jobs", "2").stdout
    expect("completed points skipped", resumed, "the healing resume")
    expect("4/4 points complete", cli(d, "sweep", "status", "chaos-fail").stdout,
           "status after the healing resume")


def obs(d: Path) -> None:
    cli(d, "--version")
    cli(d, "scenario", "init", "scenario.json", "--configurations", "XBar/OCM",
        "--workloads", "Uniform")
    run = cli(d, "-v", "run", "scenario.json", "--progress", "--metrics-out",
              "metrics.csv", "--timeline-out", "timeline.json", "--output",
              "obs-report.md")
    exists(d / "metrics.csv")
    exists(d / "timeline.json")
    expect("pairs", run.stderr, "the run's stderr progress")
    events = json.loads((d / "timeline.json").read_text(encoding="utf-8"))
    check(isinstance(events, list) and events,
          "timeline.json is not a non-empty trace_event array")
    check(all("ph" in e and "pid" in e for e in events),
          "a timeline event lacks ph or pid")
    check(any(e["ph"] == "X" for e in events), "the timeline has no X span")
    resources = {row["resource"] for row in read_csv(d / "metrics.csv")}
    check(len(resources) >= 4, f"metrics.csv covers only {sorted(resources)}")
    payload = json.loads((d / "obs-report.results.json").read_text(encoding="utf-8"))
    check("phases" in payload["timings"], "results JSON has no timings.phases")
    write_sweep(d / "obs-sweep.json", "obs-grid", "XBar/OCM",
                {"name": "seed", "path": "scale.seed", "values": [1, 2]})
    swept = cli(d, "sweep", "run", "obs-sweep.json", "--directory", "obs-out",
                "--jobs", "2", "--progress")
    expect("[sweep]", swept.stderr, "the sweep's stderr heartbeat")
    expect("s replay", cli(d, "sweep", "status", "obs-out", "--timings").stdout,
           "sweep status --timings")


def saturation(d: Path) -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.sweeps import run_sweep
    from repro.sweeps.library import latency_throughput_sweep_spec

    spec = latency_throughput_sweep_spec(rates=(4.0e9, 1.6e10, 2.56e11), scale="quick")
    outcome = run_sweep(spec, directory=d / "saturation-out", jobs=2)
    check(len(outcome.records) == 6,
          f"the quick ladder gave {len(outcome.records)} records, expected 6")
    check(any(r.result.saturated for r in outcome.records),
          "no ladder point saturated (2.56e11 rps must saturate both fabrics)")
    report = (d / "saturation-out" / "report.md").read_text(encoding="utf-8")
    expect("Latency-throughput saturation", report, "saturation report.md")
    expect("knee offered", report, "saturation report.md")
    header = (d / "saturation-out" / "results.csv").read_text(encoding="utf-8")
    header = header.splitlines()[0]
    for column in ("offered_rps", "achieved_rps", "saturated", "p99_sojourn_ns"):
        expect(column, header, "saturation results.csv header")
    cli(d, "sweep", "run", "latency-throughput", "--scale", "quick",
        "--directory", "sat-cli-out", "--jobs", "2")
    expect("Latency-throughput saturation",
           (d / "sat-cli-out" / "report.md").read_text(encoding="utf-8"),
           "the registered sweep's report.md")


def diff(d: Path) -> None:
    # Identical-seed runs (serial vs 2 workers) diff clean, exit 0.
    cli(d, "scenario", "init", "scenario.json", "--configurations", "XBar/OCM",
        "LMesh/ECM", "--workloads", "Uniform")
    cli(d, "run", "scenario.json", "--jobs", "1", "--output", "runA.md")
    cli(d, "run", "scenario.json", "--jobs", "2", "--output", "runB.md")
    expect("0 divergence(s)",
           cli(d, "diff", "runA.results.json", "runB.results.json").stdout,
           "the jobs-1/jobs-2 self-diff")
    # An injected 1.5x XBar/OCM latency regression ranks first and gates.
    path = d / "runB.results.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    for row in payload["results"]:
        if row["configuration"] == "XBar/OCM":
            for field in ("average_latency_s", "p99_latency_s", "execution_time_s"):
                row[field] *= 1.5
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    report = cli(d, "diff", "runA.results.json", "runB.results.json",
                 "--output", "diff.json", code=5).stdout
    (d / "diff.md").write_text(report, encoding="utf-8")
    expect("severe", report, "diff.md")
    doc = json.loads((d / "diff.json").read_text(encoding="utf-8"))
    check(doc["format"] == "corona-diff/1", f"diff.json format is {doc['format']!r}")
    check(doc["divergences"], "diff.json ranks no divergence")
    check(doc["max_severity"] == "severe", f"max_severity is {doc['max_severity']!r}")
    check(doc["gating_count"] >= 3, f"gating_count is {doc['gating_count']}")
    top = doc["pair_ranking"][0]
    check(top["configuration"] == "XBar/OCM", f"ranked first: {top}")
    # Two runs of one sweep diff clean.
    write_sweep(d / "diff-sweep.json", "diff-grid", "XBar/OCM", GAP_AXIS)
    cli(d, "sweep", "run", "diff-sweep.json", "--directory", "sweepA", "--jobs", "2")
    cli(d, "sweep", "run", "diff-sweep.json", "--directory", "sweepB", "--jobs", "1")
    expect("0 divergence(s)", cli(d, "diff", "sweepA", "sweepB").stdout,
           "the sweep self-diff")


def bench(d: Path) -> None:
    done = python(REPO_ROOT, "-m", "scripts.bench_regression", "--smoke", "--json")
    (d / "bench-smoke.json").write_text(done.stdout, encoding="utf-8")
    snapshot = json.loads(done.stdout)
    dispatch = snapshot["phase_timings"]["matrix_parallel"]["dispatch"]
    measured = snapshot["metrics"]["matrix_dispatch_seconds"]
    check(round(measured, 4) == dispatch,
          f"matrix_dispatch_seconds {measured} is not the parallel run's "
          f"dispatch phase {dispatch}")


SECTIONS = (scenario, sweep, chaos, obs, saturation, diff, bench)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    failed = []
    started = time.perf_counter()
    for section in SECTIONS:
        name = section.__name__
        directory = OUT / name
        directory.mkdir(parents=True)
        section_started = time.perf_counter()
        try:
            section(directory)
            verdict = "ok"
        except Exception as exc:
            failed.append(name)
            verdict = "FAIL"
            detail = str(exc) if isinstance(exc, SmokeFailure) else traceback.format_exc()
            print(f"[smoke] {name}: {detail}", file=sys.stderr, flush=True)
        print(f"[smoke] {name:<11}{verdict:<5}"
              f"{time.perf_counter() - section_started:6.1f} s", flush=True)
    total = time.perf_counter() - started
    if failed:
        print(f"[smoke] FAILED in {total:.1f} s: {', '.join(failed)}")
        return 1
    print(f"[smoke] all {len(SECTIONS)} sections passed in {total:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
