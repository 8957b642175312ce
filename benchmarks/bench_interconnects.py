"""Micro-benchmarks of the interconnect models themselves.

These benchmark the simulation substrate (transfers per second of wall-clock
time) and double as regression checks on the modelled latencies and
bandwidths of the crossbar and the meshes under light and heavy load.
"""


from repro.network.arbitration import TokenRingArbiter
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import high_performance_mesh, low_performance_mesh
from repro.network.message import Message, MessageType


def _line(src, dst):
    return Message(src=src, dst=dst, message_type=MessageType.READ_RESPONSE)


def test_crossbar_transfer_rate(benchmark):
    """Crossbar message transfers per second of host time."""
    crossbar = OpticalCrossbar()

    def send_batch():
        now = 0.0
        for i in range(1000):
            result = crossbar.transfer(_line(i % 64, (i * 7 + 1) % 64), now)
            now += 0.1e-9
        return result

    result = benchmark(send_batch)
    assert result.arrival_time > 0


def test_hmesh_transfer_rate(benchmark):
    """Mesh message transfers per second of host time (dimension-order)."""
    mesh = high_performance_mesh()

    def send_batch():
        now = 0.0
        for i in range(1000):
            result = mesh.transfer(_line(i % 64, (i * 7 + 1) % 64), now)
            now += 0.1e-9
        return result

    result = benchmark(send_batch)
    assert result.hops > 0


def test_token_arbitration_rate(benchmark):
    """Token acquire/release pairs per second of host time, on the channel
    arbiters the crossbar drives."""
    arbiter = TokenRingArbiter()
    channels = arbiter.channels

    def arbitrate():
        now = 0.0
        for i in range(2000):
            channel = channels[i % 64]
            cluster = (i * 13) % 64
            grant = channel.acquire(cluster, now)
            channel.release(cluster, grant + 0.2e-9)
            now += 0.05e-9
        return arbiter.average_wait_s()

    wait = benchmark(arbitrate)
    assert wait >= 0.0


def test_unloaded_latency_gap_crossbar_vs_mesh(benchmark):
    """The crossbar's unloaded latency beats the mesh for distant clusters."""

    def measure():
        crossbar = OpticalCrossbar()
        mesh = high_performance_mesh()
        xbar_latency = crossbar.transfer(_line(0, 63), 0.0).network_latency
        mesh_latency = mesh.transfer(_line(0, 63), 0.0).network_latency
        return xbar_latency, mesh_latency

    xbar_latency, mesh_latency = benchmark(measure)
    # 14 mesh hops at 5 clocks each dwarf the crossbar's <= 8-clock flight.
    assert mesh_latency > 4 * xbar_latency


def test_saturated_channel_bandwidth(benchmark):
    """A single crossbar channel under contention sustains most of 320 GB/s."""

    def saturate():
        crossbar = OpticalCrossbar()
        last = 0.0
        count = 500
        for i in range(count):
            last = crossbar.transfer(_line(1 + i % 63, 0), 0.0).arrival_time
        return count * 72 / last

    achieved = benchmark(saturate)
    assert achieved > 0.5 * 320e9


def test_mesh_bisection_limits_uniform_traffic(benchmark):
    """Uniform traffic across the LMesh saturates near its bisection bandwidth."""

    def saturate():
        mesh = low_performance_mesh()
        import random

        rng = random.Random(1)
        last = 0.0
        count = 2000
        for _ in range(count):
            src, dst = rng.randrange(64), rng.randrange(64)
            last = max(last, mesh.transfer(_line(src, dst), 0.0).arrival_time)
        return count * 72 / last

    achieved = benchmark(saturate)
    # Uniform random traffic cannot exceed ~2x the bisection bandwidth and
    # should reach a significant fraction of it.
    assert 0.2 * 0.64e12 < achieved < 2.5 * 0.64e12
