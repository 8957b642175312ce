"""Benchmarks of the parallel evaluation harness.

Measures the wall-clock of a reduced (configuration x workload) matrix run
by the :class:`~repro.harness.parallel.ParallelEvaluationRunner` in process
(``jobs=1``) and on the worker pool, plus the trace-shipping overhead of the
pool path (packed traces shipped once per workload through shared memory;
workers receive a ~100-byte handle per pair instead of a pickled
record-object trace).  The reduced matrix keeps the suite fast while still
exercising trace reuse, worker dispatch and result collection;
`scripts/bench_regression.py` runs the same comparison and records it --
including the ``matrix_dispatch_seconds`` overhead metric -- in
``BENCH_replay.json``.

On a multicore host the parallel runs complete in roughly ``serial /
min(jobs, cores)``; on a single-core host the pool path measures the
multiprocessing overhead floor.
"""

from __future__ import annotations

from repro.harness.experiments import EvaluationMatrix, ExperimentScale
from repro.harness.parallel import ParallelEvaluationRunner, available_cpus

#: Small but non-trivial: 2 configurations x the 4 synthetic workloads.
_BENCH_SCALE = ExperimentScale(synthetic_requests=3_000)
_BENCH_CONFIGURATIONS = ("LMesh/ECM", "XBar/OCM")


def _bench_matrix() -> EvaluationMatrix:
    return EvaluationMatrix(
        scale=_BENCH_SCALE,
        configuration_names=list(_BENCH_CONFIGURATIONS),
        include_splash=False,
    )


def _run_serial():
    runner = ParallelEvaluationRunner(matrix=_bench_matrix(), jobs=1)
    return runner.run()


def _run_parallel(jobs: int):
    runner = ParallelEvaluationRunner(matrix=_bench_matrix(), jobs=jobs)
    return runner.run()


def test_matrix_serial(benchmark):
    results = benchmark.pedantic(_run_serial, rounds=2, iterations=1)
    assert len(results) == len(_bench_matrix().workloads()) * len(
        _BENCH_CONFIGURATIONS
    )


def test_matrix_parallel_all_cores(benchmark):
    jobs = available_cpus()
    results = benchmark.pedantic(_run_parallel, args=(jobs,), rounds=2, iterations=1)
    assert len(results) == len(_bench_matrix().workloads()) * len(
        _BENCH_CONFIGURATIONS
    )


def test_matrix_parallel_matches_serial(benchmark):
    """The pool must reproduce the in-process run: identical results."""
    serial = _run_serial()

    def parallel():
        return _run_parallel(2)

    parallel_results = benchmark.pedantic(parallel, rounds=1, iterations=1)
    assert parallel_results == serial
