"""Tests for the electrical mesh interconnects (HMesh / LMesh)."""

import pytest

from repro.network.mesh import (
    ElectricalMesh,
    high_performance_mesh,
    low_performance_mesh,
)
from repro.network.message import Message, MessageType


def _request(src, dst):
    return Message(src=src, dst=dst, message_type=MessageType.READ_REQUEST)


def _response(src, dst):
    return Message(src=src, dst=dst, message_type=MessageType.READ_RESPONSE)


class TestMeshConstruction:
    @staticmethod
    def _bisection_bandwidth(mesh):
        return mesh.link_bandwidth_bytes_per_s * mesh.coordinates.bisection_link_count()

    def test_hmesh_bisection_bandwidth(self):
        assert self._bisection_bandwidth(high_performance_mesh()) == pytest.approx(1.28e12)

    def test_lmesh_bisection_bandwidth(self):
        assert self._bisection_bandwidth(low_performance_mesh()) == pytest.approx(0.64e12)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            ElectricalMesh("dead", bisection_bandwidth_bytes_per_s=0.0)

    def test_link_bandwidth_derived_from_bisection(self):
        mesh = high_performance_mesh()
        assert mesh.link_bandwidth_bytes_per_s == pytest.approx(1.28e12 / 16)

    def test_hop_latency_is_five_clocks(self):
        mesh = high_performance_mesh(clock_hz=5e9)
        assert mesh.hop_latency_s == pytest.approx(1e-9)

    def test_meshes_have_no_static_power(self):
        assert high_performance_mesh().static_power_w() == 0.0

    def test_all_links_built(self):
        mesh = high_performance_mesh()
        assert len(mesh.links) == 2 * 2 * 8 * 7


class TestMeshTransfers:
    def test_local_message_is_free(self):
        mesh = high_performance_mesh()
        result = mesh.transfer(_request(5, 5), now=0.0)
        assert result.arrival_time == 0.0
        assert result.hops == 0
        assert result.dynamic_energy_j == 0.0

    def test_single_hop_latency(self):
        mesh = high_performance_mesh()
        result = mesh.transfer(_request(0, 1), now=0.0)
        serialization = 16 / mesh.link_bandwidth_bytes_per_s
        assert result.hops == 1
        assert result.arrival_time == pytest.approx(1e-9 + serialization)

    def test_corner_to_corner_hops(self):
        mesh = high_performance_mesh()
        result = mesh.transfer(_response(0, 63), now=0.0)
        assert result.hops == 14
        assert result.propagation_delay == pytest.approx(14e-9)

    def test_energy_is_196pj_per_hop(self):
        mesh = high_performance_mesh()
        result = mesh.transfer(_response(0, 63), now=0.0)
        assert result.dynamic_energy_j == pytest.approx(14 * 196e-12)

    def test_contention_creates_queueing(self):
        mesh = low_performance_mesh()
        # Saturate one link with many large messages from the same source.
        results = [mesh.transfer(_response(0, 1), now=0.0) for _ in range(50)]
        assert results[-1].queueing_delay > results[0].queueing_delay
        assert results[-1].arrival_time > results[0].arrival_time

    def test_disjoint_paths_do_not_interfere(self):
        mesh = high_performance_mesh()
        first = mesh.transfer(_response(0, 1), now=0.0)
        second = mesh.transfer(_response(62, 63), now=0.0)
        assert second.queueing_delay == 0.0
        assert first.queueing_delay == 0.0

    def test_statistics_accumulate(self):
        mesh = high_performance_mesh()
        hops = mesh.transfer(_request(0, 3), now=0.0).hops
        hops += mesh.transfer(_response(3, 0), now=1e-9).hops
        assert mesh.messages_sent == 2
        assert mesh.bytes_sent == pytest.approx(16 + 72)
        assert hops == 6
        assert mesh.total_dynamic_energy_j == pytest.approx(6 * 196e-12)

    def test_dynamic_power(self):
        mesh = high_performance_mesh()
        mesh.transfer(_response(0, 63), now=0.0)
        power = mesh.dynamic_power_w(1e-6)
        assert power == pytest.approx(14 * 196e-12 / 1e-6)

    def test_out_of_range_endpoint_rejected(self):
        mesh = high_performance_mesh()
        with pytest.raises(ValueError):
            mesh.transfer(_request(0, 64), now=0.0)

    def test_hot_link_reporting(self):
        mesh = high_performance_mesh()
        for _ in range(10):
            mesh.transfer(_response(0, 1), now=0.0)
        hottest = mesh.most_utilized_links(elapsed_seconds=1e-6, count=1)
        assert hottest[0][0] == (0, 1)
        assert hottest[0][1] > 0

    def test_small_mesh_supported(self):
        mesh = ElectricalMesh("tiny", num_clusters=16, bisection_bandwidth_bytes_per_s=0.32e12)
        result = mesh.transfer(_request(0, 15), now=0.0)
        assert result.hops == 6
