"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that the printed metric names and units match BENCHMARK.json, that
every repetition passed the correctness checks, that the traced run's
network, memory and coherence spans fit inside ``sim.run_s``, and that the
benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_spec(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    report = done.stdout.strip().rsplit("\n", 1)[0]
    for metric in declared:
        assert f" {metric['name']} " in report
    if trace:
        layers = {name: metric["value"] for name, metric in line["metrics"].items()}
        below = (
            layers["network.transfer_s"] + layers["network.multicast_s"]
            + layers["memory.access_s"] + layers["coherence.process_miss_s"]
            + layers["coherence.writeback_s"]
        )
        assert 0 < below <= layers["sim.run_s"] * (1 + 1e-9)
        assert layers["sim.events"] > 0 and layers["core.requests"] > 0
        if workload == "coherent-mixed":
            assert layers["coherence.process_miss_calls"] > 0


def test_refuses_to_run_without_the_program():
    isolated = BENCH_DIR / "out" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, isolated / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        done = run_bench(WORKLOADS[0], 0, cwd=isolated)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
