"""Tests for the optical crossbar, token arbitration and broadcast bus."""

import pytest

from repro.core.config import CORONA_DEFAULT
from repro.network.arbitration import (
    TokenChannelArbiter,
    TokenRingArbiter,
    token_travel_times,
)
from repro.network.broadcast import OpticalBroadcastBus
from repro.network.crossbar import OpticalCrossbar
from repro.network.message import Message, MessageType


def _line(src, dst):
    return Message(src=src, dst=dst, message_type=MessageType.READ_RESPONSE)


class TestTokenChannelArbiter:
    def _arbiter(self):
        # 8-clock revolution at 5 GHz = 1.6 ns.
        return TokenChannelArbiter(
            channel_id=0, num_clusters=64, ring_round_trip_s=1.6e-9
        )

    def test_uncontested_wait_bounded_by_revolution(self):
        arbiter = self._arbiter()
        grant = arbiter.acquire(cluster=32, now=10e-9)
        assert 10e-9 <= grant <= 10e-9 + 1.6e-9

    def test_travel_time_proportional_to_distance(self):
        travel = token_travel_times(64, 1.6e-9)
        assert travel[32] == pytest.approx(2 * travel[16])

    def test_self_distance_is_full_revolution(self):
        assert token_travel_times(64, 1.6e-9)[0] == pytest.approx(1.6e-9)

    def test_contested_grant_uses_neighbour_handoff(self):
        arbiter = self._arbiter()
        grant = arbiter.acquire(cluster=10, now=0.0)
        arbiter.release(cluster=10, release_time=grant + 5e-9)
        # A second requester arriving while the channel is still held waits
        # for the release plus one neighbour hop, not a large travel time.
        second = arbiter.acquire(cluster=40, now=1e-9)
        assert second == pytest.approx(grant + 5e-9 + 1.6e-9 / 64)

    def test_uncontested_token_must_come_around_again(self):
        arbiter = self._arbiter()
        arbiter.release_position = 0
        arbiter.release_time = 0.0
        # At t = 1.0 ns the token (released at t=0 from cluster 0) has already
        # passed cluster 8 (arrival 0.2 ns), so cluster 8 waits a revolution.
        grant = arbiter.acquire(cluster=8, now=1.0e-9)
        assert grant == pytest.approx(0.2e-9 + 1.6e-9)

    def test_release_must_not_go_backwards(self):
        arbiter = self._arbiter()
        arbiter.release(cluster=3, release_time=5e-9)
        with pytest.raises(ValueError):
            arbiter.release(cluster=4, release_time=1e-9)

    def test_average_wait_tracked(self):
        arbiter = self._arbiter()
        grant = arbiter.acquire(cluster=1, now=0.0)
        assert arbiter.total_wait_s == grant >= 0.0
        assert arbiter.grants == 1


class TestTokenRingArbiter:
    def test_one_token_per_channel(self):
        arbiter = TokenRingArbiter(num_clusters=64, ring_round_trip_s=1.6e-9)
        assert len(arbiter.channels) == 64

    def test_channels_are_independent(self):
        arbiter = TokenRingArbiter(num_clusters=64, ring_round_trip_s=1.6e-9)
        channel_a, channel_b = arbiter.channels[0], arbiter.channels[1]
        grant_a = channel_a.acquire(cluster=5, now=0.0)
        channel_a.release(cluster=5, release_time=grant_a + 100e-9)
        # Channel 1 is unaffected by channel 0 being busy.
        grant_b = channel_b.acquire(cluster=5, now=0.0)
        assert grant_b < grant_a + 100e-9

    def test_wait_statistics_accumulate(self):
        arbiter = TokenRingArbiter(num_clusters=64, ring_round_trip_s=1.6e-9)
        first = arbiter.channels[0].acquire(cluster=1, now=0.0)
        second = arbiter.channels[1].acquire(cluster=2, now=0.0)
        assert [arbiter.channels[c].grants for c in range(3)] == [1, 1, 0]
        assert arbiter.average_wait_s() == pytest.approx((first + second) / 2)


class TestOpticalCrossbar:
    def test_aggregate_bandwidth_is_20tbps(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        aggregate = crossbar.num_clusters * crossbar.channel_bandwidth_bytes_per_s
        assert aggregate == pytest.approx(20.48e12)

    def test_static_power_is_26w(self):
        assert OpticalCrossbar(CORONA_DEFAULT).static_power_w() == pytest.approx(26.0)

    def test_cache_line_serialization_is_one_clock(self):
        line = Message(
            src=0, dst=1, message_type=MessageType.READ_RESPONSE, size_bytes=64
        )
        result = OpticalCrossbar(CORONA_DEFAULT).transfer(line, now=0.0)
        assert result.serialization_delay == pytest.approx(0.2e-9)

    def test_propagation_bounded_by_8_clocks(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        delays = [
            crossbar.transfer(_line(src, dst), now=0.0).propagation_delay
            for src in range(0, 64, 7)
            for dst in range(64)
        ]
        assert max(delays) <= 1.6e-9 + 1e-15
        assert min(delays) >= 0.0

    def test_local_transfer_is_free(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        result = crossbar.transfer(_line(3, 3), now=0.0)
        assert result.arrival_time == 0.0
        assert result.hops == 0

    def test_remote_transfer_latency_components(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        result = crossbar.transfer(_line(0, 32), now=0.0)
        assert result.hops == 0
        assert result.serialization_delay == pytest.approx(72 / 320e9)
        assert result.propagation_delay == pytest.approx(0.8e-9)
        assert result.arrival_time == pytest.approx(
            result.queueing_delay + result.serialization_delay + result.propagation_delay
        )

    def test_uncontested_queueing_at_most_one_revolution(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        result = crossbar.transfer(_line(5, 20), now=100e-9)
        assert result.queueing_delay <= 1.6e-9

    def test_channel_contention_serializes_senders(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        # Many clusters write to cluster 0's channel at the same instant.
        arrivals = [
            crossbar.transfer(_line(src, 0), now=0.0).arrival_time
            for src in range(1, 21)
        ]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > arrivals[0]

    def test_contended_channel_sustains_near_peak_bandwidth(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        count = 200
        last_arrival = 0.0
        for i in range(count):
            src = 1 + (i % 63)
            last_arrival = crossbar.transfer(_line(src, 0), now=0.0).arrival_time
        achieved = count * 72 / last_arrival
        assert achieved > 0.5 * crossbar.channel_bandwidth_bytes_per_s

    def test_different_channels_do_not_interfere(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        crossbar.transfer(_line(1, 0), now=0.0)
        result = crossbar.transfer(_line(2, 3), now=0.0)
        assert result.queueing_delay <= 1.6e-9

    def test_channel_statistics(self):
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        crossbar.transfer(_line(1, 0), now=0.0)
        crossbar.transfer(_line(2, 0), now=0.0)
        assert crossbar.channel_bytes[0] == pytest.approx(2 * 72)
        assert crossbar.busiest_channels(1) == [(0, pytest.approx(144.0))]
        assert crossbar.messages_sent == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            OpticalCrossbar(CORONA_DEFAULT).transfer(_line(0, 64), now=0.0)


class TestBroadcastBus:
    def test_bandwidth_is_64_wavelengths(self):
        bus = OpticalBroadcastBus(CORONA_DEFAULT)
        assert bus.bandwidth_bytes_per_s == pytest.approx(80e9)

    def test_broadcast_reaches_everyone_after_coil(self):
        bus = OpticalBroadcastBus(CORONA_DEFAULT)
        message = Message(src=3, dst=3, message_type=MessageType.INVALIDATE)
        result = bus.transfer(message, now=0.0)
        assert result.propagation_delay == pytest.approx(bus.coil_round_trip_s)

    def test_single_invalidate_replaces_many_unicasts(self):
        bus = OpticalBroadcastBus(CORONA_DEFAULT)
        bus.broadcast_invalidate(src=0, sharers=40, now=0.0)
        assert bus.broadcasts_sent == 1
        assert bus.unicast_messages_avoided == 39

    def test_bus_serializes_concurrent_broadcasters(self):
        bus = OpticalBroadcastBus(CORONA_DEFAULT)
        first = bus.broadcast_invalidate(src=0, sharers=10, now=0.0)
        second = bus.broadcast_invalidate(src=1, sharers=10, now=0.0)
        assert second.arrival_time > first.arrival_time

    def test_listener_losses_cover_all_clusters(self):
        losses = OpticalBroadcastBus(CORONA_DEFAULT).listener_losses_db()
        assert len(losses) == 64

    def test_negative_sharers_rejected(self):
        with pytest.raises(ValueError):
            OpticalBroadcastBus(CORONA_DEFAULT).broadcast_invalidate(src=0, sharers=-1, now=0.0)
