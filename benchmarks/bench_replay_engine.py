"""Micro-benchmarks of the trace-driven replay engine.

Measures the wall-clock cost of the end-to-end system simulation (events per
second) on the Corona configuration and on the electrical baseline, which is
the quantity that determines how far the paper's 1 M / 240 M-request traces
must be scaled down for a pure-Python replay.
"""

from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator
from repro.trace.synthetic import uniform_workload


def _run(configuration_name, trace, window):
    simulator = SystemSimulator(
        configuration_by_name(configuration_name), window_depth=window
    )
    return simulator.run(trace)


def test_replay_rate_corona(benchmark):
    workload = uniform_workload()
    trace = workload.generate_packed(seed=1, num_requests=5000)
    result = benchmark.pedantic(_run, args=("XBar/OCM", trace, workload.window), rounds=2, iterations=1)
    assert result.num_requests == 5000


def test_replay_rate_electrical_baseline(benchmark):
    workload = uniform_workload()
    trace = workload.generate_packed(seed=1, num_requests=5000)
    result = benchmark.pedantic(_run, args=("LMesh/ECM", trace, workload.window), rounds=2, iterations=1)
    assert result.num_requests == 5000


def test_packed_generation_rate(benchmark):
    """Chunk-wise packed generation, 20k requests."""
    workload = uniform_workload()
    packed = benchmark.pedantic(
        workload.generate_packed,
        kwargs=dict(seed=2, num_requests=20_000),
        rounds=2,
        iterations=1,
    )
    assert packed.total_requests == 20_000


def test_trace_plus_replay_end_to_end(benchmark):
    """Generation plus replay, the unit of work the harness repeats 85 times."""

    def end_to_end():
        workload = uniform_workload()
        trace = workload.generate_packed(seed=3, num_requests=3000)
        return _run("HMesh/OCM", trace, workload.window)

    result = benchmark.pedantic(end_to_end, rounds=2, iterations=1)
    assert result.achieved_bandwidth_bytes_per_s > 0
