"""In-process/pool equivalence tests for the matrix runner.

:class:`~repro.harness.parallel.ParallelEvaluationRunner` replays in process
at ``jobs=1`` and on a worker pool otherwise; both must produce the same
results (bit-identical, not approximately equal), in the same order, with
the same bookkeeping shape -- and both must reproduce the golden per-pair
digests in :mod:`tests.golden`.  The matrix under test is ``quick_matrix()``
-- every (configuration, workload) pair of the evaluation -- with the
request counts scaled down so the 2x85 replays stay test-suite fast while
still covering every pair.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness import parallel
from repro.harness.parallel import ParallelEvaluationRunner, available_cpus
from tests.golden import (
    SMALL_QUICK_MATRIX,
    digests,
    small_quick_matrix,
    tiny_matrix,
)


@pytest.fixture(scope="module")
def in_process_run():
    runner = ParallelEvaluationRunner(matrix=small_quick_matrix(), jobs=1)
    runner.run()
    return runner


@pytest.fixture(scope="module")
def pool_run():
    runner = ParallelEvaluationRunner(matrix=small_quick_matrix(), jobs=2)
    runner.run()
    return runner


class TestSerialParallelEquivalence:
    def test_in_process_fallback_is_identical(self, in_process_run):
        """jobs=1 uses no pool and reproduces the golden digests exactly."""
        assert digests(in_process_run.results) == SMALL_QUICK_MATRIX

    def test_pool_run_is_identical_for_every_pair(self, in_process_run, pool_run):
        """Worker processes replay shipped traces to bit-identical results."""
        assert len(pool_run.results) == pool_run.matrix.run_count() == 85
        for serial, pooled in zip(in_process_run.results, pool_run.results):
            # Field-by-field so a mismatch names the offending metric.
            for field in dataclasses.fields(serial):
                assert getattr(serial, field.name) == getattr(
                    pooled, field.name
                ), (serial.workload, serial.configuration, field.name)
        assert digests(pool_run.results) == SMALL_QUICK_MATRIX

    def test_result_ordering_matches_serial_iteration(self, in_process_run, pool_run):
        """Workloads outer, configurations inner, whatever the jobs value."""
        matrix = small_quick_matrix()
        expected = [
            (workload, configuration)
            for workload in matrix.workload_names()
            for configuration in matrix.configuration_names
        ]
        for runner in (in_process_run, pool_run):
            assert [(r.workload, r.configuration) for r in runner.results] == expected

    def test_run_seconds_bookkeeping(self, in_process_run, pool_run):
        assert set(pool_run.run_seconds) == set(in_process_run.run_seconds)
        assert pool_run.total_wall_clock_seconds() > 0.0
        assert (
            pool_run.total_simulated_requests()
            == in_process_run.total_simulated_requests()
        )


class TestRunnerApi:
    def test_resolved_jobs_defaults_to_available_cpus(self):
        """jobs=0 starts one worker per available CPU (capped at one per pair)."""
        matrix = tiny_matrix()
        runner = ParallelEvaluationRunner(matrix=matrix)
        runner.run()
        assert len(runner.worker_seconds) == min(available_cpus(), matrix.run_count())

    def test_explicit_jobs_respected(self):
        runner = ParallelEvaluationRunner(matrix=tiny_matrix(), jobs=2)
        runner.run()
        assert len(runner.worker_seconds) == 2
        assert "in-process" not in runner.worker_seconds

    def test_run_workload_covers_every_configuration(self):
        """A workload filter runs one workload across every configuration."""
        matrix = dataclasses.replace(small_quick_matrix(), workload_filter=["Uniform"])
        runner = ParallelEvaluationRunner(matrix=matrix, jobs=1)
        results = runner.run()
        assert [r.configuration for r in results] == list(matrix.configuration_names)
        assert all(r.workload == "Uniform" for r in results)
        assert digests(results) == {
            key: value
            for key, value in SMALL_QUICK_MATRIX.items()
            if key.endswith("/Uniform")
        }

    def test_shipments_released_after_pool_run(self, monkeypatch):
        """The parent frees every shared-memory shipment once results are in."""
        shipped = []

        class RecordingShipment(parallel.TraceShipment):
            def __init__(self, packed):
                super().__init__(packed)
                shipped.append(self)

        monkeypatch.setattr(parallel, "TraceShipment", RecordingShipment)
        matrix = tiny_matrix()
        ParallelEvaluationRunner(matrix=matrix, jobs=2).run()
        assert len(shipped) == len(matrix.workloads())
        assert all(shipment._shm is None for shipment in shipped)

    def test_pool_workers_share_the_parent_resource_tracker(self):
        """Traces ship after the workers start, so in a fresh process the
        pool must start the resource tracker first: a tracker a worker
        starts itself unlinks the parent's blocks when the worker exits,
        and warns about "leaked" shared memory."""
        code = (
            "from repro.harness.experiments import EvaluationMatrix, ExperimentScale\n"
            "from repro.harness.parallel import ParallelEvaluationRunner\n"
            "matrix = EvaluationMatrix(scale=ExperimentScale(synthetic_requests=300),\n"
            "    configuration_names=['XBar/OCM'], include_splash=False)\n"
            "assert len(ParallelEvaluationRunner(matrix=matrix, jobs=2).run()) == 6\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr

    def test_progress_reported_in_serial_order(self):
        matrix = tiny_matrix()
        lines = []
        runner = ParallelEvaluationRunner(
            matrix=matrix, jobs=2, progress=lines.append
        )
        runner.run()
        assert len(lines) == matrix.run_count()
        assert lines[0].split()[0] == matrix.workload_names()[0]

    def test_in_process_phases_fit_in_the_wall_clock(self):
        """Generation, replay and dispatch never add up to more than the run
        took: dispatch excludes the generation done inside its window."""
        runner = ParallelEvaluationRunner(matrix=tiny_matrix(), jobs=1)
        started = time.perf_counter()
        runner.run()
        wall = time.perf_counter() - started
        phases = runner.phase_seconds
        assert phases["trace_generation"] > 0 and phases["replay"] > 0
        assert (
            phases["trace_generation"] + phases["replay"] + phases["dispatch"]
            <= wall
        )
