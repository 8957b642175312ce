"""Tests for core/cluster/hub models and the power models."""

import pytest

from repro.cores.cluster import Cluster, ClusterParameters
from repro.cores.core import Core, CoreParameters, CorePowerAreaModel
from repro.cores.hub import Hub
from repro.power.cacti import CacheGeometry, cache_power_area
from repro.power.chip import corona_chip_power
from repro.power.electrical import (
    MeshPowerModel,
    electrical_memory_interconnect_power_w,
)
from repro.power.optical import (
    PhotonicPowerBudget,
    optical_memory_interconnect_power_w,
)


class TestCore:
    def test_peak_flops_per_core(self):
        # 5 GHz x 4-wide SIMD x 2 (FMA) = 40 Gflop/s per core.
        assert CoreParameters().peak_flops == pytest.approx(40e9)

    def test_core_construction(self):
        core = Core(core_id=3)
        assert core.hardware_threads == 4
        assert core.peak_flops == pytest.approx(40e9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CoreParameters(frequency_hz=0.0)
        with pytest.raises(ValueError):
            CoreParameters(threads=0)

    def test_power_area_anchors(self):
        model = CorePowerAreaModel()
        assert 0.3 < model.penryn_based_core_power_w() < 0.7
        assert 0.1 < model.silverthorne_based_core_power_w() < 0.3
        assert model.penryn_based_core_area_mm2() > 0
        assert model.silverthorne_based_core_area_mm2() > model.penryn_based_core_area_mm2()


class TestCluster:
    def test_cluster_has_four_cores_and_sixteen_threads(self):
        cluster = Cluster(cluster_id=0)
        assert len(cluster.cores) == 4
        assert cluster.hardware_threads == 16

    def test_cluster_peak_flops(self):
        assert Cluster(cluster_id=0).peak_flops == pytest.approx(160e9)

    def test_thread_ids_are_contiguous_per_cluster(self):
        cluster = Cluster(cluster_id=2)
        assert list(cluster.thread_ids()) == list(range(32, 48))

    def test_invalid_cluster_parameters(self):
        with pytest.raises(ValueError):
            ClusterParameters(cores=0)


class TestHub:
    def test_mshr_allocation_waits_when_full(self):
        hub = Hub(cluster_id=0, mshrs=2)
        hub.mshr_pool.acquire(0.0, release_time_hint=100e-9)
        hub.mshr_pool.acquire(0.0, release_time_hint=200e-9)
        grant = hub.allocate_mshr(0.0, release_time=300e-9)
        assert grant == pytest.approx(100e-9)

    def test_injection_adds_forwarding_latency(self):
        hub = Hub(cluster_id=0)
        departure = hub.inject(0.0, departure_time=1e-9)
        assert departure == pytest.approx(hub.forwarding_latency_s)
        assert hub.messages_routed == 1


class TestCactiModel:
    def test_larger_cache_has_larger_area_and_leakage(self):
        small = cache_power_area(CacheGeometry(capacity_bytes=32 * 1024, associativity=4))
        large = cache_power_area(
            CacheGeometry(capacity_bytes=4 * 1024 * 1024, associativity=16)
        )
        assert large.area_mm2 > small.area_mm2
        assert large.leakage_w > small.leakage_w

    def test_higher_associativity_costs_energy(self):
        low = cache_power_area(CacheGeometry(capacity_bytes=64 * 1024, associativity=2))
        high = cache_power_area(CacheGeometry(capacity_bytes=64 * 1024, associativity=16))
        assert high.read_energy_j > low.read_energy_j

    def test_total_power_includes_dynamic(self):
        estimate = cache_power_area(
            CacheGeometry(capacity_bytes=64 * 1024, associativity=4)
        )
        idle = estimate.total_power_w(0.0, 0.0)
        busy = estimate.total_power_w(1e9, 1e8)
        assert busy > idle

    def test_8t_cell_is_larger(self):
        six = cache_power_area(
            CacheGeometry(capacity_bytes=64 * 1024, associativity=4, cell_type="6T")
        )
        eight = cache_power_area(
            CacheGeometry(capacity_bytes=64 * 1024, associativity=4, cell_type="8T")
        )
        assert eight.area_mm2 > six.area_mm2

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=100, associativity=3)
        with pytest.raises(ValueError):
            cache_power_area(
                CacheGeometry(capacity_bytes=64 * 1024, associativity=4, cell_type="10T")
            )


class TestPowerModels:
    def test_mesh_energy_per_hop(self):
        model = MeshPowerModel()
        assert model.transaction_energy_j(5) == pytest.approx(5 * 196e-12)

    def test_mesh_power_for_bandwidth(self):
        model = MeshPowerModel()
        # ~1 TB/s of 72-byte messages over ~5.3 hops is tens of watts.
        power = model.power_for_bandwidth_w(1e12, average_hops=5.33)
        assert 10 < power < 30

    def test_electrical_memory_power_exceeds_160w_at_10tbps(self):
        assert electrical_memory_interconnect_power_w(10.24e12) > 160.0

    def test_optical_memory_power_is_about_6w(self):
        assert optical_memory_interconnect_power_w(10.24e12) == pytest.approx(6.4, rel=0.05)

    def test_photonic_budget_total(self):
        budget = PhotonicPowerBudget()
        assert budget.total_w == pytest.approx(39.0)
        assert budget.crossbar_share_w() == pytest.approx(26.0, rel=0.01)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            MeshPowerModel().transaction_energy_j(-1)
        with pytest.raises(ValueError):
            electrical_memory_interconnect_power_w(-1.0)


class TestChipPower:
    def test_penryn_anchor_matches_paper_range(self):
        report = corona_chip_power(anchor="penryn")
        assert 140 <= report.processor_power_w <= 170
        assert 400 <= report.core_die_area_mm2 <= 450

    def test_silverthorne_anchor_matches_paper_range(self):
        report = corona_chip_power(anchor="silverthorne")
        assert 75 <= report.processor_power_w <= 100
        assert 460 <= report.core_die_area_mm2 <= 520

    def test_total_includes_photonics_and_memory_links(self):
        report = corona_chip_power(anchor="penryn")
        assert report.total_power_w > report.processor_power_w
        assert report.photonic_power_w == pytest.approx(39.0)

    def test_as_dict_has_all_components(self):
        report = corona_chip_power(anchor="penryn").as_dict()
        for key in ("core_power_w", "l2_power_w", "total_power_w", "core_die_area_mm2"):
            assert key in report

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError):
            corona_chip_power(anchor="pentium")
