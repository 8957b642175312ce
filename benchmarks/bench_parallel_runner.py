"""Benchmarks of the parallel evaluation harness.

Measures the wall-clock of a reduced (configuration x workload) scenario run
by :func:`repro.api.run` in process (``jobs=1``) and on the worker pool,
plus the trace-shipping overhead of the pool path (packed traces shipped
once per workload through shared memory; workers receive a ~100-byte
handle per pair instead of a pickled record-object trace).  The reduced
scenario keeps the suite fast while still exercising trace reuse, worker
dispatch and result collection; `scripts/bench_regression.py` runs the
same comparison and records it -- including the ``matrix_dispatch_seconds``
overhead metric -- in ``BENCH_replay.json``.

On a multicore host the parallel runs complete in roughly ``serial /
min(jobs, cores)``; on a single-core host the pool path measures the
multiprocessing overhead floor.
"""

from __future__ import annotations

from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec, run
from repro.harness.parallel import available_cpus
from repro.trace.synthetic import synthetic_workloads

#: Small but non-trivial: 2 configurations x the 6 synthetic workloads.
_BENCH_SCENARIO = Scenario(
    name="bench-parallel-runner",
    system=SystemSpec(configurations=("LMesh/ECM", "XBar/OCM")),
    workloads=tuple(WorkloadSpec(name=w.name) for w in synthetic_workloads()),
    scale=ScaleSpec(synthetic_requests=3_000),
)
_BENCH_PAIRS = len(_BENCH_SCENARIO.system.configurations) * len(
    _BENCH_SCENARIO.workloads
)


def _run(jobs: int):
    return run(_BENCH_SCENARIO, jobs=jobs).results


def test_matrix_serial(benchmark):
    results = benchmark.pedantic(_run, args=(1,), rounds=2, iterations=1)
    assert len(results) == _BENCH_PAIRS


def test_matrix_parallel_all_cores(benchmark):
    jobs = available_cpus()
    results = benchmark.pedantic(_run, args=(jobs,), rounds=2, iterations=1)
    assert len(results) == _BENCH_PAIRS


def test_matrix_parallel_matches_serial(benchmark):
    """The pool must reproduce the in-process run: identical results."""
    serial = _run(1)
    parallel_results = benchmark.pedantic(_run, args=(2,), rounds=1, iterations=1)
    assert parallel_results == serial
