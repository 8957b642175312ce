"""End-to-end smoke tests for the runnable examples.

Each example is executed as a real subprocess (fresh interpreter, the same
``PYTHONPATH=src`` entry point a user types), so import errors, stale APIs
and crashing demos fail the suite rather than the next reader.  Request
counts are passed/kept small so every script finishes in seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"


def _run_example(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


class TestExampleSmoke:
    def test_quickstart_runs_end_to_end(self):
        result = _run_example("quickstart.py", "2000")
        assert result.returncode == 0, result.stderr
        assert "Corona quickstart" in result.stdout
        assert "speedup over LMesh/ECM" in result.stdout

    def test_custom_scenario_runs_end_to_end(self):
        result = _run_example("custom_scenario.py", "1500")
        assert result.returncode == 0, result.stderr
        # The user-registered configuration and workload (absent from the
        # built-in tables) must both appear in the streamed results.
        assert "XBar/ECM" in result.stdout
        assert "Shuffle" in result.stdout
        assert "crossbar alone buys" in result.stdout

    def test_sweep_study_runs_end_to_end(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        result = _run_example("sweep_study.py", "1500")
        assert result.returncode == 0, result.stderr
        assert "Sweep study" in result.stdout
        # Trace reuse across points sharing a workload (4 gaps, 12 points).
        assert "4 traces generated for 12 points" in result.stdout
        # Resume skipped everything on the second run.
        assert "12 points skipped, 0 executed" in result.stdout
        assert "12/12 complete" in result.stdout
        # The study directory goes away with the example.
        assert not list(tmp_path.glob("corona-sweep-*"))

    def test_fault_study_runs_end_to_end(self):
        result = _run_example("fault_study.py", "1200")
        assert result.returncode == 0, result.stderr
        assert "Fault study" in result.stdout
        # The chaos part self-checks: it exits non-zero unless the crashed
        # and retried pool run reproduced the clean results exactly.
        assert "bit-identical to the clean run: True" in result.stdout

    def test_coherence_broadcast_runs_end_to_end(self):
        result = _run_example("coherence_broadcast.py")
        assert result.returncode == 0, result.stderr
        assert "Sharer-count distribution" in result.stdout
        assert "Broadcasts used" in result.stdout
        # The timed replay comparison added with the coherence subsystem.
        assert "Timed coherent replay" in result.stdout
        assert "XBar/OCM" in result.stdout and "LMesh/ECM" in result.stdout

    def test_synthetic_traffic_runs_end_to_end(self):
        result = _run_example("synthetic_traffic.py", "1024")
        assert result.returncode == 0, result.stderr
        for pattern in ("Uniform", "Hot Spot", "Neighbor"):
            assert f"=== {pattern} (1,024 requests) ===" in result.stdout
        assert "busiest crossbar channels" in result.stdout
        assert "hottest mesh links" in result.stdout

    def test_reproduce_paper_runs_end_to_end(self):
        result = _run_example(
            "reproduce_paper.py", "--requests", "300", "--skip-splash"
        )
        assert result.returncode == 0, result.stderr
        for figure in ("Figure 8", "Figure 9", "Figure 10", "Figure 11"):
            assert figure in result.stdout
        assert "Section 5 geometric-mean summary" in result.stdout

    def test_address_level_pipeline_runs_end_to_end(self):
        result = _run_example("address_level_pipeline.py", "4", "200")
        assert result.returncode == 0, result.stderr
        assert "=== AddressStreaming ===" in result.stdout
        assert "=== AddressResident ===" in result.stdout
        assert "XBar/OCM" in result.stdout

    def test_sensitivity_study_runs_end_to_end(self):
        result = _run_example("sensitivity_study.py", "1200")
        assert result.returncode == 0, result.stderr
        for title in (
            "Crossbar link-budget margin vs waveguide loss",
            "Crossbar link-budget margin vs per-ring through loss",
            "Laser wall-plug power for the crossbar vs waveguide loss",
            "Achieved bandwidth (Uniform, XBar/OCM) vs crossbar channel bandwidth",
            "Achieved bandwidth (Uniform, XBar/OCM) vs per-thread miss window",
        ):
            assert title in result.stdout
        # One row per swept channel width (80-640 GB/s).
        for bandwidth in ("8e+10", "1.6e+11", "3.2e+11", "6.4e+11"):
            assert f" {bandwidth} " in result.stdout

    def test_ocm_scaling_runs_end_to_end(self):
        result = _run_example("ocm_scaling.py")
        assert result.returncode == 0, result.stderr
        assert "Daisy-chain expansion" in result.stdout

    def test_photonic_design_runs_end_to_end(self):
        result = _run_example("photonic_design.py")
        assert result.returncode == 0, result.stderr
        assert "Table 2: optical resource inventory" in result.stdout

    def test_splash2_study_runs_end_to_end(self):
        result = _run_example("splash2_study.py", "600", "FFT", "LU")
        assert result.returncode == 0, result.stderr
        assert "Per-class geometric-mean speedup" in result.stdout
