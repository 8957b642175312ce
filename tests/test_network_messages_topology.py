"""Tests for network messages and topology helpers."""

import pytest

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

    def test_is_local(self):
        assert Message(src=3, dst=3, message_type=MessageType.READ_REQUEST).is_local
        assert not Message(src=3, dst=4, message_type=MessageType.READ_REQUEST).is_local

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


def _manhattan(mesh, src, dst):
    (sx, sy), (dx, dy) = mesh.position(src), mesh.position(dst)
    return abs(sx - dx) + abs(sy - dy)


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
        assert len(mesh.dimension_order_route(0, 63)) == 14
        assert len(mesh.dimension_order_route(0, 7)) == 7
        assert len(mesh.dimension_order_route(9, 9)) == 0

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
            assert len(mesh.dimension_order_route(src, dst)) == _manhattan(
                mesh, src, dst
            )

    def test_all_links_count(self):
        mesh = MeshCoordinates.square(64)
        # 2 * 2 * radix * (radix - 1) directed links for an 8x8 mesh.
        assert len(mesh.all_links()) == 2 * 2 * 8 * 7

    def test_bisection_link_count(self):
        assert MeshCoordinates.square(64).bisection_link_count() == 16

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            MeshCoordinates.square(16).position(16)
