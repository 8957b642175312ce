"""Shared fixtures for the paper-reproduction benchmarks.

The figure benchmarks (Figures 8-11) all consume the same evaluation matrix,
so it is run exactly once per benchmark session at the quick scale and shared
through a session-scoped fixture.  The matrix is fanned across worker
processes (``REPRO_BENCH_JOBS`` processes; default: every available CPU),
which divides its wall-clock by the core count while producing results
bit-identical to the in-process run.  Table benchmarks and micro-benchmarks do
not need it and stay fast.
"""

from __future__ import annotations

import os

import pytest

from repro.api import Scenario, build_matrix, run


@pytest.fixture(scope="session")
def evaluation_matrix():
    """The 5-configuration x 17-workload matrix at the quick scale."""
    return build_matrix(Scenario(name="benchmarks"))


@pytest.fixture(scope="session")
def evaluation_results(evaluation_matrix):
    """Results of running the full matrix once (shared by all figure benches).

    ``REPRO_BENCH_JOBS`` overrides the worker count (0 = all CPUs, 1 =
    in process); the results are bit-identical either way.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0"))
    return run(evaluation_matrix.scenario, jobs=jobs).results


@pytest.fixture(scope="session")
def workload_order(evaluation_matrix):
    return evaluation_matrix.workload_names()


@pytest.fixture(scope="session")
def synthetic_names(evaluation_matrix):
    return evaluation_matrix.synthetic_names()


@pytest.fixture(scope="session")
def splash_names(evaluation_matrix):
    return evaluation_matrix.splash_names()
