"""Ablation benchmarks for the design's key modelling and architectural choices.

Each ablation varies one modelling or architectural knob and checks that the
system responds the way the paper's argument predicts:

* **Thread window (memory-level parallelism)** -- Corona's bandwidth advantage
  only materializes if the cores can keep several misses in flight.
* **Token-ring round-trip time** -- the paper's 8-clock uncontested worst case
  is visible in unloaded latency but does not throttle a contended channel.
* **Crossbar channel width** -- halving the per-channel bandwidth pushes the
  bandwidth-hungry workloads back toward the mesh numbers.
* **Memory latency** -- both OCM and ECM assume 20 ns; Corona's advantage is
  bandwidth, not latency, so inflating the DRAM latency hurts both roughly
  equally.

The window is a replay argument; every other knob is a
:class:`~repro.core.config.CoronaConfig` field, so each system is built from
``CORONA_DEFAULT.with_overrides(...)``.
"""


from repro.core.config import CORONA_DEFAULT
from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator
from repro.trace.synthetic import uniform_workload

REQUESTS = 16000


def _uniform_trace(num_requests=REQUESTS, seed=1):
    return uniform_workload().generate_packed(seed=seed, num_requests=num_requests)


def test_ablation_thread_window(benchmark):
    """Corona's achieved bandwidth scales with per-thread MLP."""
    trace = _uniform_trace()

    def sweep():
        achieved = {}
        for window in (1, 4, 8):
            simulator = SystemSimulator(
                configuration_by_name("XBar/OCM"), window_depth=window
            )
            achieved[window] = simulator.run(trace).achieved_bandwidth_bytes_per_s
        return achieved

    achieved = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert achieved[4] > 1.3 * achieved[1]
    assert achieved[8] >= achieved[4]


def test_ablation_token_ring_round_trip(benchmark):
    """A slower arbitration ring raises unloaded latency, not saturated bandwidth."""
    trace = _uniform_trace(3000)

    def run_with_round_trip(cycles):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"),
            CORONA_DEFAULT.with_overrides({"token_ring_round_trip_cycles": cycles}),
            window_depth=8,
        )
        return simulator.run(trace)

    fast = run_with_round_trip(8.0)
    slow = benchmark.pedantic(run_with_round_trip, args=(64.0,), rounds=1, iterations=1)
    assert slow.average_latency_s > fast.average_latency_s
    # Bandwidth degrades by far less than the 8x arbitration slowdown.
    assert slow.achieved_bandwidth_bytes_per_s > 0.5 * fast.achieved_bandwidth_bytes_per_s


def test_ablation_crossbar_channel_width(benchmark):
    """Halving channel bandwidth costs bandwidth-hungry workloads throughput."""
    trace = _uniform_trace()

    def run_with_waveguides(waveguides):
        # 64 wavelengths x 10 Gb/s per waveguide: 80 GB/s each, 320 GB/s at 4.
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"),
            CORONA_DEFAULT.with_overrides(
                {"crossbar_waveguides_per_channel": waveguides}
            ),
            window_depth=8,
        )
        return simulator.run(trace).achieved_bandwidth_bytes_per_s

    full = run_with_waveguides(4)
    narrow = benchmark.pedantic(run_with_waveguides, args=(1,), rounds=1, iterations=1)
    assert narrow < full

    # Even the narrow crossbar still beats the electrical baseline.
    baseline = SystemSimulator(
        configuration_by_name("LMesh/ECM"), window_depth=8
    ).run(trace)
    assert narrow > baseline.achieved_bandwidth_bytes_per_s


def test_ablation_memory_latency(benchmark):
    """Doubling DRAM latency hurts, but bandwidth remains the differentiator."""
    trace = _uniform_trace()

    def run_with_memory_latency(scale):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"),
            CORONA_DEFAULT.with_overrides({"memory_latency_s": 20e-9 * scale}),
            window_depth=8,
        )
        return simulator.run(trace)

    nominal = run_with_memory_latency(1.0)
    slow = benchmark.pedantic(run_with_memory_latency, args=(2.0,), rounds=1, iterations=1)
    assert slow.average_latency_s > nominal.average_latency_s
    assert slow.execution_time_s > nominal.execution_time_s

    baseline = SystemSimulator(
        configuration_by_name("LMesh/ECM"), window_depth=8
    ).run(trace)
    assert slow.execution_time_s < baseline.execution_time_s
