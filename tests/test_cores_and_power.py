"""Tests for core/cluster/hub models and the power models."""

import pytest

from repro.cores.cluster import ClusterParameters
from repro.cores.core import CoreParameters, CorePowerAreaModel
from repro.cores.hub import Hub
from repro.power.cacti import CacheGeometry, cache_power_area
from repro.power.chip import corona_chip_power
from repro.power.electrical import electrical_memory_interconnect_power_w
from repro.power.optical import optical_memory_interconnect_power_w


class TestCore:
    def test_peak_flops_per_core(self):
        # 5 GHz x 4-wide SIMD x 2 (FMA) = 40 Gflop/s per core.
        assert CoreParameters().peak_flops == pytest.approx(40e9)

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
    def test_invalid_cluster_parameters(self):
        with pytest.raises(ValueError):
            ClusterParameters(cores=0)
        with pytest.raises(ValueError, match="MSHR"):
            ClusterParameters(l2_mshrs=0)
        with pytest.raises(ValueError, match="hub queue depth"):
            ClusterParameters(hub_queue_depth=0)


class TestHub:
    def test_mshr_allocation_waits_when_full(self):
        hub = Hub(cluster_id=0, queue_depth=64, mshrs=2)
        for release in (100e-9, 200e-9):
            hub.mshr_pool.acquire(0.0)
            hub.mshr_pool.release_at(release)
        grant = hub.mshr_pool.acquire(0.0)
        assert grant == pytest.approx(100e-9)

    def test_injection_queue_pushes_back_when_full(self):
        """Each request leaving the core is admitted to the hub's injection
        queue, which holds it until the hub has forwarded it."""
        hub = Hub(cluster_id=0, queue_depth=2, mshrs=64)
        forwarding = hub.forwarding_latency_s
        assert hub.injection_queue.admit(0.0, forwarding) == 0.0
        assert hub.injection_queue.admit(0.0, 2 * forwarding) == 0.0
        assert hub.injection_queue.admit(0.0, 3 * forwarding) == forwarding


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
    def test_electrical_memory_power_exceeds_160w_at_10tbps(self):
        assert electrical_memory_interconnect_power_w(10.24e12) > 160.0

    def test_optical_memory_power_is_about_6w(self):
        assert optical_memory_interconnect_power_w(10.24e12) == pytest.approx(6.4, rel=0.05)

    def test_negative_inputs_rejected(self):
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

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError):
            corona_chip_power(anchor="pentium")
