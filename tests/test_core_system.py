"""Integration tests for the trace-driven system simulator."""

import gc
import weakref

import pytest

from repro.core.configs import all_configurations, configuration_by_name
from repro.core.system import SystemSimulator, simulate_workload
from repro.trace.packed import PackedTraceBuilder


def _single_request_trace(num_clusters=16, src=0, home=5, is_write=False):
    builder = PackedTraceBuilder(
        "single", num_clusters=num_clusters, threads_per_cluster=2
    )
    builder.append(src * 2, home, is_write, False, (home << 26) | 0x40, 10.0)
    return builder.build()


class TestSingleTransaction:
    def test_read_latency_breakdown_on_corona(self, small_config):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        )
        result = simulator.run(_single_request_trace())
        assert result.num_requests == 1
        # One uncontested read: ~2 ns gap + network + ~22 ns memory.
        assert 20e-9 < result.average_latency_s < 60e-9
        assert result.execution_time_s > result.average_latency_s

    def test_read_latency_on_baseline_is_higher(self, small_config):
        corona = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        ).run(_single_request_trace())
        baseline = SystemSimulator(
            configuration_by_name("LMesh/ECM"), corona_config=small_config
        ).run(_single_request_trace())
        assert baseline.average_latency_s > corona.average_latency_s

    def test_local_request_skips_network(self, small_config):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        )
        result = simulator.run(_single_request_trace(src=3, home=3))
        assert result.network_messages == 0
        assert simulator.stats.network_messages == 0

    def test_write_transaction_completes(self, small_config):
        simulator = SystemSimulator(
            configuration_by_name("HMesh/OCM"), corona_config=small_config
        )
        result = simulator.run(_single_request_trace(is_write=True))
        assert result.num_requests == 1
        assert simulator.stats.writes == 1

    def test_memory_bytes_counted(self, small_config):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        )
        result = simulator.run(_single_request_trace())
        assert result.memory_bytes == 64


class TestWorkloadReplay:
    def test_all_requests_complete(self, small_config, small_uniform_workload):
        result = simulate_workload(
            configuration_by_name("XBar/OCM"),
            small_uniform_workload,
            num_requests=2000,
            corona_config=small_config,
        )
        assert result.num_requests == 2000
        assert result.execution_time_s > 0
        assert result.achieved_bandwidth_bytes_per_s > 0

    def test_every_configuration_runs(
        self, small_config, small_uniform_workload, any_configuration
    ):
        result = simulate_workload(
            any_configuration,
            small_uniform_workload,
            num_requests=1000,
            corona_config=small_config,
        )
        assert result.configuration == any_configuration.name
        assert result.num_requests == 1000
        assert result.average_latency_s > 0

    def test_corona_outperforms_baseline_on_uniform(
        self, small_config, small_uniform_workload
    ):
        corona = simulate_workload(
            configuration_by_name("XBar/OCM"),
            small_uniform_workload,
            num_requests=3000,
            corona_config=small_config,
        )
        baseline = simulate_workload(
            configuration_by_name("LMesh/ECM"),
            small_uniform_workload,
            num_requests=3000,
            corona_config=small_config,
        )
        assert corona.execution_time_s < baseline.execution_time_s
        assert corona.average_latency_s < baseline.average_latency_s
        assert (
            corona.achieved_bandwidth_bytes_per_s
            > baseline.achieved_bandwidth_bytes_per_s
        )

    def test_splash_workload_runs(self, small_config, small_splash_workload):
        result = simulate_workload(
            configuration_by_name("HMesh/OCM"),
            small_splash_workload,
            num_requests=2000,
            corona_config=small_config,
        )
        assert result.num_requests == 2000
        assert not result.is_synthetic

    def test_deterministic_replay(self, small_config, small_uniform_workload):
        first = simulate_workload(
            configuration_by_name("XBar/OCM"),
            small_uniform_workload,
            num_requests=1500,
            corona_config=small_config,
            seed=11,
        )
        second = simulate_workload(
            configuration_by_name("XBar/OCM"),
            small_uniform_workload,
            num_requests=1500,
            corona_config=small_config,
            seed=11,
        )
        assert first.execution_time_s == pytest.approx(second.execution_time_s)
        assert first.average_latency_s == pytest.approx(second.average_latency_s)

    def test_network_power_accounts_static_for_crossbar(
        self, small_config, small_uniform_workload
    ):
        corona = simulate_workload(
            configuration_by_name("XBar/OCM"),
            small_uniform_workload,
            num_requests=1000,
            corona_config=small_config,
        )
        assert corona.network_static_power_w == pytest.approx(26.0)
        assert corona.network_power_w >= 26.0

    def test_mesh_power_is_purely_dynamic(
        self, small_config, small_uniform_workload
    ):
        baseline = simulate_workload(
            configuration_by_name("LMesh/ECM"),
            small_uniform_workload,
            num_requests=1000,
            corona_config=small_config,
        )
        assert baseline.network_static_power_w == 0.0
        assert baseline.network_dynamic_power_w > 0.0

    def test_window_depth_improves_throughput(self, small_config, small_uniform_workload):
        narrow = simulate_workload(
            configuration_by_name("XBar/OCM"),
            small_uniform_workload,
            num_requests=2000,
            corona_config=small_config,
            window_depth=1,
        )
        wide = simulate_workload(
            configuration_by_name("XBar/OCM"),
            small_uniform_workload,
            num_requests=2000,
            corona_config=small_config,
            window_depth=8,
        )
        assert wide.execution_time_s < narrow.execution_time_s

    @pytest.mark.parametrize("name", ["XBar/OCM", "LMesh/ECM"])
    def test_window_bounds_outstanding_misses(self, small_config, name):
        # One thread, 8 remote misses.  With zero gaps and one window slot
        # each miss issues when the one before it completes, so the makespan
        # is the sum of the latencies; two slots overlap them in pairs.  With
        # the window open, 1000-cycle gaps space the issues instead.
        def replay(depth, gap_cycles=0.0):
            builder = PackedTraceBuilder(
                "chain", num_clusters=16, threads_per_cluster=2
            )
            for index in range(8):
                home = 1 + index
                address = (home << 26) | (index << 6)
                builder.append(0, home, False, False, address, gap_cycles)
            return SystemSimulator(
                configuration_by_name(name),
                corona_config=small_config,
                window_depth=depth,
            ).run(builder.build())

        serial = replay(1)
        assert serial.execution_time_s == pytest.approx(
            serial.num_requests * serial.average_latency_s, rel=1e-9
        )
        paired = replay(2)
        assert paired.execution_time_s == pytest.approx(
            paired.num_requests * paired.average_latency_s / 2, rel=0.05
        )
        spaced = replay(8, gap_cycles=1000.0)
        last_issue_s = 8 * 1000.0 / small_config.clock_hz
        assert spaced.execution_time_s - last_issue_s == pytest.approx(
            spaced.average_latency_s, rel=0.05
        )

    def test_rejects_bad_window(self, small_config):
        with pytest.raises(ValueError):
            SystemSimulator(
                configuration_by_name("XBar/OCM"),
                corona_config=small_config,
                window_depth=0,
            )

    def test_negative_first_gap_rejected(self, small_config):
        """A thread's first issue may not precede the replay's start."""
        trace = _single_request_trace()
        trace.gaps[0] = -10.0
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        )
        with pytest.raises(ValueError):
            simulator.run(trace)

    def test_stats_conservation(self, small_config, small_uniform_workload):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"),
            corona_config=small_config,
            window_depth=4,
        )
        trace = small_uniform_workload.generate_packed(seed=1, num_requests=2000)
        result = simulator.run(trace)
        stats = simulator.stats
        assert stats.requests == 2000
        assert stats.reads + stats.writes == 2000
        assert stats.memory_bytes == pytest.approx(2000 * 64)
        assert result.memory_bytes == pytest.approx(stats.memory_bytes)
        # Every remote transaction contributes exactly two network messages.
        remote = stats.network_messages // 2
        assert simulator.network.messages_sent == 2 * remote

    def test_latency_never_below_memory_floor(self, small_config, small_uniform_workload):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        )
        trace = small_uniform_workload.generate_packed(seed=1, num_requests=1000)
        simulator.run(trace)
        # No transaction can complete faster than the 20 ns DRAM access.
        assert simulator.stats.latency.minimum >= 20e-9

    def test_p99_latency_not_clamped_for_slow_tails(self):
        """Regression: the latency histogram used to truncate at 2000 ns, so
        configurations with slower tails reported a silently capped p99."""
        from repro.core.system import TransactionStats

        stats = TransactionStats()
        for _ in range(99):
            stats.record(100e-9, 0.0, 0.0, 0.0, False, 64, 0, 2)
        for _ in range(3):
            stats.record(9000e-9, 0.0, 0.0, 0.0, False, 64, 0, 2)
        p99_ns = stats.latency_histogram.percentile(0.99)
        assert p99_ns > 2000.0
        assert p99_ns == pytest.approx(9000.0, rel=0.05)
        # The raw accumulator agrees that the tail is real.
        assert stats.latency.maximum == pytest.approx(9000e-9)

    def test_transaction_stats_properties_track_new_samples(self):
        from repro.core.system import TransactionStats

        stats = TransactionStats()
        stats.record(100e-9, 1e-9, 2e-9, 3e-9, False, 64, 2, 2)
        assert stats.latency.count == 1  # materializes the lazy view
        stats.record(300e-9, 1e-9, 2e-9, 3e-9, True, 64, 2, 2)
        assert stats.latency.count == 2
        assert stats.latency.mean == pytest.approx(200e-9)
        assert stats.queueing.mean == pytest.approx(1e-9)
        assert stats.network_latency.mean == pytest.approx(2e-9)
        assert stats.memory_latency.mean == pytest.approx(3e-9)


class TestAdmissionOverflowGoldens:
    """Pairs whose admissions wait behind more bookings than slots, pinned
    to the digests the list-and-scan admission rule produced."""

    def test_hotspot_controller_queue_matches_golden(self):
        from repro.analysis.runtime import scenario_digests
        from tests.golden import HOTSPOT_OVERFLOW, hotspot_overflow_scenario

        assert scenario_digests(hotspot_overflow_scenario(), jobs=1) == HOTSPOT_OVERFLOW

    def test_coherent_mshr_pools_match_golden(self):
        from repro.analysis.runtime import scenario_digests
        from tests.golden import (
            COHERENT_MSHR_OVERFLOW,
            coherent_mshr_overflow_scenario,
        )

        assert (
            scenario_digests(coherent_mshr_overflow_scenario(), jobs=1)
            == COHERENT_MSHR_OVERFLOW
        )


class TestSimulatorLifetime:
    """A replayed simulator is freed by reference counting, and building one
    stays cheap.

    The one reference cycle left is opt-in and out of scope here: the
    metrics sampler (``MetricsSampler(self)``, installed on the calendar
    only when an observability spec asks for metrics) refers back to its
    simulator.
    """

    @pytest.mark.parametrize("name", ["XBar/OCM", "LMesh/ECM"])
    @pytest.mark.parametrize("variant", ["default", "coherent", "faulted"])
    def test_freed_without_the_cycle_collector(self, name, variant):
        from repro.coherence.engine import CoherenceConfig
        from repro.coherence.sharing import SharingProfile
        from repro.faults.spec import FaultSpec
        from repro.trace.synthetic import uniform_workload

        options = {
            "default": {},
            "coherent": {"coherence": CoherenceConfig()},
            "faulted": {
                "faults": FaultSpec(
                    seed=3,
                    ring_detuning_fraction=0.1,
                    token_loss_rate=0.1,
                    dead_link_fraction=0.2,
                    dram_timeout_rate=0.1,
                )
            },
        }[variant]
        workload = uniform_workload(sharing=SharingProfile(fraction=0.5))
        trace = workload.generate_packed(seed=1, num_requests=400)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            simulator = SystemSimulator(
                configuration_by_name(name), window_depth=workload.window, **options
            )
            simulator.run(trace)
            memory = weakref.ref(simulator.memory)
            del simulator
            assert memory() is None
        finally:
            if gc_was_enabled:
                gc.enable()

    def test_construction_allocates_few_tracked_objects(self):
        """Each of the five configurations builds in under 10,000 GC-tracked
        objects; one object per DRAM die and bank would add about 12,000."""
        for configuration in all_configurations():
            SystemSimulator(configuration)
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                before = len(gc.get_objects())
                simulator = SystemSimulator(configuration)
                created = len(gc.get_objects()) - before
            finally:
                if gc_was_enabled:
                    gc.enable()
            del simulator
            assert created < 10_000, (configuration.name, created)
