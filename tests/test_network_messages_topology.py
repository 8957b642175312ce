"""Tests for network messages, topology helpers and links."""

import pytest

from repro.network.link import Link
from repro.network.message import (
    CACHE_LINE_BYTES,
    Message,
    MessageType,
    message_size_bytes,
)
from repro.network.topology import MeshCoordinates, TransferResult


class TestMessage:
    def test_default_sizes(self):
        assert message_size_bytes(MessageType.READ_REQUEST) == 16
        assert message_size_bytes(MessageType.READ_RESPONSE) == CACHE_LINE_BYTES + 8
        assert message_size_bytes(MessageType.WRITEBACK) == CACHE_LINE_BYTES + 8
        assert message_size_bytes(MessageType.WRITE_ACK) == 16

    def test_message_defaults_size_from_type(self):
        message = Message(src=0, dst=1, message_type=MessageType.READ_RESPONSE)
        assert message.size_bytes == 72
        assert message.carries_data

    def test_control_message_does_not_carry_data(self):
        message = Message(src=0, dst=1, message_type=MessageType.READ_REQUEST)
        assert not message.carries_data

    def test_is_local(self):
        assert Message(src=3, dst=3, message_type=MessageType.READ_REQUEST).is_local
        assert not Message(src=3, dst=4, message_type=MessageType.READ_REQUEST).is_local

    def test_flit_count(self):
        message = Message(src=0, dst=1, message_type=MessageType.READ_RESPONSE)
        assert message.flit_count(16) == 5  # 72 bytes -> 5 x 16-byte flits

    def test_flit_count_rejects_bad_flit_size(self):
        message = Message(src=0, dst=1, message_type=MessageType.READ_REQUEST)
        with pytest.raises(ValueError):
            message.flit_count(0)

    def test_message_ids_unique(self):
        a = Message(src=0, dst=1, message_type=MessageType.READ_REQUEST)
        b = Message(src=0, dst=1, message_type=MessageType.READ_REQUEST)
        assert a.message_id != b.message_id

    def test_rejects_negative_endpoints(self):
        with pytest.raises(ValueError):
            Message(src=-1, dst=0, message_type=MessageType.READ_REQUEST)


class TestTransferResult:
    def test_network_latency_is_sum_of_components(self):
        result = TransferResult(
            arrival_time=10.0,
            queueing_delay=1.0,
            serialization_delay=2.0,
            propagation_delay=3.0,
            hops=4,
            dynamic_energy_j=0.0,
        )
        assert result.network_latency == pytest.approx(6.0)


class TestMeshCoordinates:
    def test_square_construction(self):
        mesh = MeshCoordinates.square(64)
        assert mesh.radix_x == 8 and mesh.radix_y == 8
        assert mesh.num_nodes == 64

    def test_square_rejects_non_square(self):
        with pytest.raises(ValueError):
            MeshCoordinates.square(60)

    def test_position_roundtrip(self):
        mesh = MeshCoordinates.square(64)
        for cluster in range(64):
            x, y = mesh.position(cluster)
            assert mesh.cluster_at(x, y) == cluster

    def test_hop_distance_is_manhattan(self):
        mesh = MeshCoordinates.square(64)
        assert mesh.hop_distance(0, 63) == 14
        assert mesh.hop_distance(0, 7) == 7
        assert mesh.hop_distance(9, 9) == 0

    def test_dimension_order_route_x_then_y(self):
        mesh = MeshCoordinates.square(16)  # 4x4
        route = mesh.dimension_order_route(0, 15)
        assert len(route) == 6
        # X first: 0 -> 1 -> 2 -> 3, then Y: 3 -> 7 -> 11 -> 15.
        assert route[:3] == [(0, 1), (1, 2), (2, 3)]
        assert route[3:] == [(3, 7), (7, 11), (11, 15)]

    def test_route_for_same_node_is_empty(self):
        mesh = MeshCoordinates.square(16)
        assert mesh.dimension_order_route(5, 5) == []

    def test_route_length_matches_hop_distance(self):
        mesh = MeshCoordinates.square(64)
        for src, dst in [(0, 63), (17, 42), (8, 1), (63, 0)]:
            assert len(mesh.dimension_order_route(src, dst)) == mesh.hop_distance(
                src, dst
            )

    def test_all_links_count(self):
        mesh = MeshCoordinates.square(64)
        # 2 * 2 * radix * (radix - 1) directed links for an 8x8 mesh.
        assert len(mesh.all_links()) == 2 * 2 * 8 * 7

    def test_bisection_link_count(self):
        assert MeshCoordinates.square(64).bisection_link_count() == 16

    def test_average_hops_for_8x8(self):
        # Mean Manhattan distance for an 8x8 mesh is 16/3 ~ 5.33 excluding
        # self-pairs.
        assert MeshCoordinates.square(64).average_hops() == pytest.approx(5.42, abs=0.15)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            MeshCoordinates.square(16).position(16)


class TestLink:
    def test_serialization_time(self):
        link = Link(src=0, dst=1, bandwidth_bytes_per_s=80e9, latency_s=1e-9)
        assert link.serialization_time(80) == pytest.approx(1e-9)

    def test_reserve_returns_start_and_finish(self):
        link = Link(src=0, dst=1, bandwidth_bytes_per_s=80e9, latency_s=1e-9)
        start, finish = link.reserve(0.0, 80)
        assert start == 0.0
        assert finish == pytest.approx(1e-9)

    def test_contention_delays_start(self):
        link = Link(src=0, dst=1, bandwidth_bytes_per_s=80e9, latency_s=1e-9)
        link.reserve(0.0, 800)
        start, _ = link.reserve(0.0, 80)
        assert start == pytest.approx(10e-9)

    def test_utilization(self):
        link = Link(src=0, dst=1, bandwidth_bytes_per_s=80e9, latency_s=1e-9)
        link.reserve(0.0, 800)
        assert link.utilization(20e-9) == pytest.approx(0.5)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            Link(src=0, dst=1, bandwidth_bytes_per_s=0.0, latency_s=1e-9)
