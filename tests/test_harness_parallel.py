"""In-process/pool equivalence tests for :func:`repro.api.run`.

``run`` replays in process at ``jobs=1`` and on a worker pool otherwise;
both must produce the same results (bit-identical, not approximately
equal), in the same order, with the same bookkeeping shape -- and both must
reproduce the golden per-pair digests in :mod:`tests.golden`.  The scenario
under test is the default one -- every (configuration, workload) pair of
the evaluation -- with the request counts scaled down so the 2x85 replays
stay test-suite fast while still covering every pair.
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
from repro.api import WorkloadSpec, build_matrix, run
from repro.harness import parallel
from repro.harness.parallel import available_cpus
from tests.golden import (
    SMALL_QUICK_MATRIX,
    digests,
    small_quick_scenario,
    tiny_scenario,
)


def _pair_keys(result):
    return {(pair["configuration"], pair["workload"]) for pair in result.timings["pairs"]}


@pytest.fixture(scope="module")
def in_process_run():
    return run(small_quick_scenario(), jobs=1)


@pytest.fixture(scope="module")
def pool_run():
    return run(small_quick_scenario(), jobs=2)


class TestSerialParallelEquivalence:
    def test_in_process_fallback_is_identical(self, in_process_run):
        """jobs=1 uses no pool and reproduces the golden digests exactly."""
        assert digests(in_process_run.results) == SMALL_QUICK_MATRIX

    def test_pool_run_is_identical_for_every_pair(self, in_process_run, pool_run):
        """Worker processes replay shipped traces to bit-identical results."""
        matrix = build_matrix(small_quick_scenario())
        assert len(pool_run.results) == matrix.run_count() == 85
        for serial, pooled in zip(in_process_run.results, pool_run.results):
            # Field-by-field so a mismatch names the offending metric.
            for field in dataclasses.fields(serial):
                assert getattr(serial, field.name) == getattr(
                    pooled, field.name
                ), (serial.workload, serial.configuration, field.name)
        assert digests(pool_run.results) == SMALL_QUICK_MATRIX

    def test_result_ordering_matches_serial_iteration(self, in_process_run, pool_run):
        """Workloads outer, configurations inner, whatever the jobs value."""
        matrix = build_matrix(small_quick_scenario())
        expected = [
            (workload, configuration)
            for workload in matrix.workload_names()
            for configuration in matrix.configuration_names
        ]
        for result in (in_process_run, pool_run):
            assert [(r.workload, r.configuration) for r in result.results] == expected

    def test_run_seconds_bookkeeping(self, in_process_run, pool_run):
        assert _pair_keys(pool_run) == _pair_keys(in_process_run)
        assert pool_run.report.wall_clock_seconds > 0.0
        assert sum(r.num_requests for r in pool_run.results) == sum(
            r.num_requests for r in in_process_run.results
        )


class TestRunnerApi:
    def test_resolved_jobs_defaults_to_available_cpus(self):
        """jobs=0 starts one worker per available CPU (capped at one per pair)."""
        scenario = tiny_scenario()
        result = run(scenario, jobs=0)
        assert len(result.timings["workers"]) == min(
            available_cpus(), build_matrix(scenario).run_count()
        )

    def test_explicit_jobs_respected(self):
        result = run(tiny_scenario(), jobs=2)
        assert len(result.timings["workers"]) == 2
        assert "in-process" not in result.timings["workers"]

    def test_run_workload_covers_every_configuration(self):
        """One named workload runs across every configuration."""
        scenario = dataclasses.replace(
            small_quick_scenario(), workloads=(WorkloadSpec(name="Uniform"),)
        )
        results = run(scenario, jobs=1).results
        assert [r.configuration for r in results] == list(
            scenario.system.configurations
        )
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
        scenario = tiny_scenario()
        run(scenario, jobs=2)
        assert len(shipped) == len(scenario.workloads)
        assert all(shipment._shm is None for shipment in shipped)

    def test_pool_workers_share_the_parent_resource_tracker(self):
        """Traces ship after the workers start, so in a fresh process the
        pool must start the resource tracker first: a tracker a worker
        starts itself unlinks the parent's blocks when the worker exits,
        and warns about "leaked" shared memory."""
        code = (
            "from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec, run\n"
            "names = ['Uniform', 'Hot Spot', 'Tornado', 'Transpose',\n"
            "    'Bit Reversal', 'Neighbor']\n"
            "scenario = Scenario(system=SystemSpec(configurations=('XBar/OCM',)),\n"
            "    workloads=tuple(WorkloadSpec(name=name) for name in names),\n"
            "    scale=ScaleSpec(synthetic_requests=300))\n"
            "assert len(run(scenario, jobs=2).results) == 6\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr

    def test_progress_reported_in_serial_order(self):
        scenario = tiny_scenario()
        lines = []
        run(scenario, jobs=2, progress=lines.append)
        matrix = build_matrix(scenario)
        assert len(lines) == matrix.run_count()
        assert lines[0].split()[0] == matrix.workload_names()[0]

    def test_in_process_phases_fit_in_the_wall_clock(self):
        """Generation, replay and dispatch never add up to more than the run
        took: dispatch excludes the generation done inside its window."""
        started = time.perf_counter()
        result = run(tiny_scenario(), jobs=1)
        wall = time.perf_counter() - started
        phases = result.timings["phases"]
        assert phases["trace_generation"] > 0 and phases["replay"] > 0
        assert (
            phases["trace_generation"] + phases["replay"] + phases["dispatch"]
            <= wall
        )
