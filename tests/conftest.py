"""Shared fixtures for the Corona reproduction test suite.

System-level tests run on a scaled-down Corona (16 clusters, 2 threads per
cluster) so each test finishes in well under a second while still exercising
every code path of the full design.
"""

from __future__ import annotations

import pytest

from repro.core.config import CoronaConfig
from repro.core.configs import all_configurations, configuration_by_name
from repro.cores.cluster import ClusterParameters
from repro.cores.core import CoreParameters
from repro.trace.splash2 import splash2_workload
from repro.trace.synthetic import uniform_workload


@pytest.fixture
def small_config() -> CoronaConfig:
    """A 16-cluster Corona used by fast system-level tests."""
    return CoronaConfig(
        num_clusters=16,
        cluster=ClusterParameters(),
        core=CoreParameters(),
    )


@pytest.fixture
def small_uniform_workload():
    """A Uniform workload shaped for the 16-cluster test system."""
    return uniform_workload(num_clusters=16, threads_per_cluster=2)


@pytest.fixture
def small_splash_workload():
    """An FFT workload shaped for the 16-cluster test system."""
    return splash2_workload("FFT", num_clusters=16, threads_per_cluster=2)


@pytest.fixture(params=[c.name for c in all_configurations()])
def any_configuration(request):
    """Parametrized over all five evaluated configurations."""
    return configuration_by_name(request.param)
