"""Tests for the Corona configuration, the five system configurations and the
results/speedup analysis."""

import pytest

from repro.core.config import CORONA_DEFAULT, CoronaConfig
from repro.core.configs import (
    BASELINE_CONFIGURATION_NAME,
    CONFIGURATION_ORDER,
    all_configurations,
    configuration_by_name,
    corona_configuration,
)
from repro.core.results import (
    WorkloadResult,
    geometric_mean_speedup,
    metric_table,
    speedup_table,
)
from repro.memory.system import MemorySystem
from repro.network.topology import Interconnect


class TestCoronaConfig:
    def test_default_structure(self):
        assert CORONA_DEFAULT.num_clusters == 64
        assert CORONA_DEFAULT.num_cores == 256
        assert CORONA_DEFAULT.num_threads == 1024

    def test_peak_performance_is_10_teraflops(self):
        assert CORONA_DEFAULT.peak_flops == pytest.approx(10.24e12, rel=0.05)

    def test_crossbar_bandwidth_is_20_tbytes(self):
        assert CORONA_DEFAULT.crossbar_total_bandwidth_bytes_per_s == pytest.approx(
            20.48e12
        )
        assert CORONA_DEFAULT.crossbar_channel_bandwidth_bytes_per_s == pytest.approx(
            320e9
        )

    def test_memory_bandwidth_is_10_tbytes(self):
        assert CORONA_DEFAULT.memory_total_bandwidth_bytes_per_s == pytest.approx(
            10.24e12
        )
        assert (
            CORONA_DEFAULT.memory_bandwidth_per_controller_bytes_per_s
            == pytest.approx(160e9)
        )

    def test_bytes_per_flop_is_about_one(self):
        assert CORONA_DEFAULT.bytes_per_flop == pytest.approx(1.0, rel=0.05)

    def test_channel_width_is_256_bits(self):
        assert CORONA_DEFAULT.crossbar_channel_width_bits == 256

    def test_table1_rows_match_paper(self):
        rows = dict(CORONA_DEFAULT.resource_configuration_rows())
        assert rows["Number of clusters"] == "64"
        assert rows["L2 cache size/assoc"] == "4 MB/16-way"
        assert rows["Frequency"] == "5 GHz"
        assert rows["Issue policy"] == "In-order"
        assert rows["Threads"] == "4"

    def test_summary_headline_numbers(self):
        summary = CORONA_DEFAULT.summary()
        assert summary["peak_teraflops"] == pytest.approx(10.24, rel=0.05)
        assert summary["crossbar_bandwidth_tbps"] == pytest.approx(20.48)
        assert summary["memory_bandwidth_tbps"] == pytest.approx(10.24)

    def test_scaled_configuration_propagates(self, small_config):
        assert small_config.num_cores == 64
        assert small_config.crossbar_total_bandwidth_bytes_per_s == pytest.approx(
            16 * 320e9
        )

    def test_rejects_too_few_clusters(self):
        with pytest.raises(ValueError):
            CoronaConfig(num_clusters=1)


class TestSystemConfigurations:
    def test_five_configurations_in_paper_order(self):
        assert CONFIGURATION_ORDER == [
            "LMesh/ECM",
            "HMesh/ECM",
            "LMesh/OCM",
            "HMesh/OCM",
            "XBar/OCM",
        ]
        assert len(all_configurations()) == 5

    def test_baseline_is_lmesh_ecm(self):
        assert BASELINE_CONFIGURATION_NAME == "LMesh/ECM"

    def test_corona_configuration_is_xbar_ocm(self):
        corona = corona_configuration()
        assert corona.name == "XBar/OCM"
        assert corona.is_corona
        assert corona.build_network().static_power_w() == pytest.approx(26.0)

    def test_lookup_unknown_name(self):
        with pytest.raises(KeyError):
            configuration_by_name("Ring/OCM")

    def test_factories_build_consistent_components(self, small_config):
        for configuration in all_configurations():
            network = configuration.build_network(small_config)
            memory = configuration.build_memory(small_config)
            assert isinstance(network, Interconnect)
            assert isinstance(memory, MemorySystem)
            assert network.num_clusters == small_config.num_clusters
            assert memory.num_controllers == small_config.num_clusters

    def test_network_bandwidth_ordering(self, small_config):
        lmesh = configuration_by_name("LMesh/ECM").build_network(small_config)
        hmesh = configuration_by_name("HMesh/ECM").build_network(small_config)
        xbar = configuration_by_name("XBar/OCM").build_network(small_config)

        def mesh_bisection(mesh):
            return mesh.link_bandwidth_bytes_per_s * mesh.coordinates.bisection_link_count()

        # Every crossbar channel can be driven across any bisection at once.
        xbar_bisection = xbar.num_clusters * xbar.channel_bandwidth_bytes_per_s
        assert mesh_bisection(lmesh) < mesh_bisection(hmesh) < xbar_bisection

    def test_memory_bandwidth_ordering(self, small_config):
        ecm = configuration_by_name("LMesh/ECM").build_memory(small_config)
        ocm = configuration_by_name("XBar/OCM").build_memory(small_config)

        def aggregate(memory):
            return sum(c.channel.bandwidth_bytes_per_s for c in memory.controllers.values())

        assert aggregate(ocm) > 10 * aggregate(ecm)


def _result(workload, configuration, execution_time, bandwidth=1e12, latency=50e-9,
            power=10.0):
    return WorkloadResult(
        workload=workload,
        configuration=configuration,
        num_requests=1000,
        execution_time_s=execution_time,
        achieved_bandwidth_bytes_per_s=bandwidth,
        average_latency_s=latency,
        p99_latency_s=latency * 3,
        network_dynamic_power_w=power,
        network_static_power_w=0.0,
        network_energy_j=1e-6,
        network_messages=2000,
        network_hops=10000,
        memory_bytes=64000.0,
        is_synthetic=True,
    )


class TestResults:
    def test_speedup_table_normalizes_to_baseline(self):
        results = [
            _result("Uniform", "LMesh/ECM", 10e-6),
            _result("Uniform", "XBar/OCM", 2e-6),
        ]
        table = speedup_table(results)
        assert table["Uniform"]["LMesh/ECM"] == pytest.approx(1.0)
        assert table["Uniform"]["XBar/OCM"] == pytest.approx(5.0)

    def test_speedup_table_missing_baseline(self):
        with pytest.raises(KeyError):
            speedup_table([_result("Uniform", "XBar/OCM", 1e-6)])

    def test_geometric_mean_speedup(self):
        results = [
            _result("A", "HMesh/ECM", 4e-6),
            _result("A", "HMesh/OCM", 1e-6),
            _result("B", "HMesh/ECM", 1e-6),
            _result("B", "HMesh/OCM", 1e-6),
        ]
        speedup = geometric_mean_speedup(results, "HMesh/OCM", "HMesh/ECM", ["A", "B"])
        assert speedup == pytest.approx(2.0)

    def test_metric_table_extracts_properties(self):
        results = [_result("A", "XBar/OCM", 1e-6, bandwidth=2e12)]
        table = metric_table(results, "achieved_bandwidth_tbps")
        assert table["A"]["XBar/OCM"] == pytest.approx(2.0)

    def test_metric_table_rejects_non_numeric(self):
        results = [_result("A", "XBar/OCM", 1e-6)]
        with pytest.raises(TypeError):
            metric_table(results, "workload")

    def test_result_properties(self):
        result = _result("A", "XBar/OCM", 1e-6, bandwidth=1.5e12, latency=100e-9)
        assert result.achieved_bandwidth_tbps == pytest.approx(1.5)
        assert result.average_latency_ns == pytest.approx(100.0)
        assert result.network_power_w == pytest.approx(10.0)
        assert result.requests_per_second == pytest.approx(1e9)
