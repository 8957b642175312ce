"""Integration tests for the trace-driven system simulator."""

import collections
import gc
import sys
import weakref

import pytest

from repro.coherence import CoherenceConfig
from repro.core.config import CORONA_DEFAULT
from repro.core.configs import CONFIGURATION_ORDER, all_configurations, configuration_by_name
from repro.core.system import SystemSimulator, simulate_workload
from repro.memory.channel import CHANNEL_LATENCY_S, ECM_DATA_RATE_BPS, ECM_WIDTH_BITS
from repro.memory.controller import COMMAND_BYTES
from repro.network.mesh import HOP_LATENCY_CYCLES
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
        assert result.network_hops == 0

    def test_write_transaction_completes(self, small_config):
        simulator = SystemSimulator(
            configuration_by_name("HMesh/OCM"), corona_config=small_config
        )
        result = simulator.run(_single_request_trace(is_write=True))
        assert result.num_requests == 1
        controllers = simulator.memory.controllers.values()
        assert [c.writes for c in controllers if c.writes or c.reads] == [1]

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
        controllers = simulator.memory.controllers.values()
        assert sum(c.reads + c.writes for c in controllers) == 2000
        assert stats.memory_bytes == pytest.approx(2000 * 64)
        assert result.memory_bytes == pytest.approx(stats.memory_bytes)
        # Every remote transaction contributes exactly two network messages.
        remote = sum(
            1 for record in trace.records() if record.home_cluster != record.cluster_id
        )
        assert 0 < remote < 2000
        assert simulator.network.messages_sent == 2 * remote

    def test_latency_never_below_memory_floor(self, small_config, small_uniform_workload):
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        )
        trace = small_uniform_workload.generate_packed(seed=1, num_requests=1000)
        simulator.run(trace)
        # No transaction can complete faster than the 20 ns DRAM access.
        latencies = simulator.stats.latency_samples
        assert len(latencies) == 1000
        assert min(latencies) >= 20e-9

    def test_p99_latency_not_clamped_for_slow_tails(self):
        """Regression: the latency histogram used to truncate at 2000 ns, so
        configurations with slower tails reported a silently capped p99."""
        from repro.core.system import TransactionStats

        stats = TransactionStats()
        for _ in range(99):
            stats.record(100e-9, 0.0, 64, 0)
        for _ in range(3):
            stats.record(9000e-9, 0.0, 64, 0)
        p99_ns = stats.latency_histogram.percentile(0.99)
        assert p99_ns > 2000.0
        assert p99_ns == pytest.approx(9000.0, rel=0.05)
        # The raw samples agree that the tail is real.
        assert max(stats.latency_samples) == pytest.approx(9000e-9)

    def test_transaction_stats_properties_track_new_samples(self):
        from repro.core.system import TransactionStats

        stats = TransactionStats()
        stats.record(100e-9, 1e-9, 64, 2)
        assert stats.latency.count == 1  # materializes the lazy view
        stats.record(300e-9, 3e-9, 64, 2)
        assert stats.latency.count == 2
        assert stats.latency.mean == pytest.approx(200e-9)
        assert stats.queueing.mean == pytest.approx(2e-9)


def _issue_and_completion_times(monkeypatch, tmp_path, simulator_options, trace):
    """Replay ``trace`` with a timeline recorder installed, and return each
    thread's ``(issue, completion)`` instants in issue order, as the replay
    hands them to :meth:`TimelineRecorder.record_transaction` (exact floats,
    not the timeline's microsecond spans)."""
    from repro.obs import ObservabilitySpec
    from repro.obs.timeline import TimelineRecorder

    times = collections.defaultdict(dict)
    record = TimelineRecorder.record_transaction

    def capture(recorder, state, transaction, response_now, completion):
        times[state.thread_id][transaction.index] = (
            transaction.issue_time,
            completion,
        )
        record(recorder, state, transaction, response_now, completion)

    monkeypatch.setattr(TimelineRecorder, "record_transaction", capture)
    simulator = SystemSimulator(
        **simulator_options,
        observability=ObservabilitySpec(timeline_path=str(tmp_path / "t.json")),
    )
    simulator.run(trace)
    assert sum(len(misses) for misses in times.values()) == len(trace)
    return {
        thread: [misses[index] for index in sorted(misses)]
        for thread, misses in times.items()
    }


def _peak_outstanding(misses):
    """Most misses outstanding at once.  A miss is outstanding from its issue
    until its completion; one that completes at ``t`` no longer counts for
    a miss that issues at ``t``."""
    steps = sorted(
        [(completion, -1) for _, completion in misses]
        + [(issue, 1) for issue, _ in misses]
    )
    outstanding = peak = 0
    for _, step in steps:
        outstanding += step
        peak = max(peak, outstanding)
    return peak


class TestIssueWindow:
    """No thread ever has more than ``window`` misses outstanding, checked
    after the run from each transaction's issue and completion instants."""

    WINDOW = 4

    @pytest.mark.parametrize("mode", ["closed", "open", "coherent"])
    @pytest.mark.parametrize("name", [c.name for c in all_configurations()])
    def test_outstanding_misses_never_exceed_window(
        self, monkeypatch, tmp_path, small_config, name, mode
    ):
        from repro.coherence.engine import CoherenceConfig
        from repro.coherence.sharing import SharingProfile
        from repro.trace.arrival import ArrivalSpec
        from repro.trace.synthetic import uniform_workload

        workload_options = {
            "closed": {},
            "open": {"arrival": ArrivalSpec(process="poisson", rate_rps=2e10)},
            "coherent": {"sharing": SharingProfile(fraction=0.5)},
        }[mode]
        workload = uniform_workload(
            num_clusters=16, threads_per_cluster=2, **workload_options
        )
        # 32 threads, about 12 misses each: every thread can fill its window.
        trace = workload.generate_packed(seed=1, num_requests=400)
        simulator_options = {
            "configuration": configuration_by_name(name),
            "corona_config": small_config,
            "window_depth": self.WINDOW,
        }
        if mode == "coherent":
            simulator_options["coherence"] = CoherenceConfig()
        times = _issue_and_completion_times(
            monkeypatch, tmp_path, simulator_options, trace
        )
        peaks = {thread: _peak_outstanding(misses) for thread, misses in times.items()}
        assert max(peaks.values()) == self.WINDOW, peaks

    @pytest.mark.parametrize("name", [c.name for c in all_configurations()])
    def test_third_miss_issues_at_first_completion(
        self, monkeypatch, tmp_path, small_config, name
    ):
        """Window 2, three misses with no compute gap: the third waits for
        the first, the miss two places back, even though the second (a
        local miss) completes sooner."""
        builder = PackedTraceBuilder("window-2", num_clusters=16, threads_per_cluster=2)
        for home in (15, 0, 7):
            builder.append(0, home, False, False, (home << 26) | 0x40, 0.0)
        times = _issue_and_completion_times(
            monkeypatch,
            tmp_path,
            {
                "configuration": configuration_by_name(name),
                "corona_config": small_config,
                "window_depth": 2,
            },
            builder.build(),
        )
        (first, second, third) = times[0]
        assert first[0] == second[0] == 0.0
        assert second[1] < first[1]
        assert third[0] == first[1]


class TestReplayOnce:
    def test_second_run_raises(self, small_config, small_uniform_workload):
        """A simulator keeps its replay's bookings (statistics, hubs,
        interconnect, memory), so a second replay would report both runs'
        requests with inflated latencies; it raises instead, and a fresh
        simulator reproduces the first result."""
        configuration = configuration_by_name("XBar/OCM")
        trace = small_uniform_workload.generate_packed(seed=1, num_requests=500)
        simulator = SystemSimulator(configuration, corona_config=small_config)
        first = simulator.run(trace)
        with pytest.raises(RuntimeError, match="build a new SystemSimulator"):
            simulator.run(trace)
        assert simulator.stats.requests == 500
        fresh = SystemSimulator(configuration, corona_config=small_config)
        assert fresh.run(trace).to_dict() == first.to_dict()


class TestFollowsCoronaConfig:
    """Every replayed component reads its numbers from the simulator's
    :class:`~repro.core.config.CoronaConfig`, none from a default of its
    own: a config that moves every replay-driving field off the design
    point reaches the network, the broadcast bus, each memory controller
    and each hub."""

    MOVED = {
        "num_clusters": 16,
        "core": {"frequency_hz": 2.5e9},
        "cluster": {"l2_mshrs": 8, "hub_queue_depth": 8},
        "crossbar_waveguides_per_channel": 2,
        "crossbar_wavelengths_per_waveguide": 32,
        "crossbar_max_propagation_cycles": 4,
        "token_ring_round_trip_cycles": 16,
        "memory_latency_s": 30e-9,
    }

    @pytest.mark.parametrize("name", CONFIGURATION_ORDER)
    def test_components_follow_the_config(self, name):
        config = CORONA_DEFAULT.with_overrides(self.MOVED)
        configuration = configuration_by_name(name)
        simulator = SystemSimulator(configuration, config, coherence=CoherenceConfig())
        clock = config.clock_hz
        ring_s = config.token_ring_round_trip_cycles / clock

        network = simulator.network
        assert (network.num_clusters, network.clock_hz) == (16, 2.5e9)
        if name.startswith("XBar"):
            assert network.channel_bandwidth_bytes_per_s == (
                config.crossbar_channel_bandwidth_bytes_per_s
            )
            assert network.max_propagation_s == config.crossbar_max_propagation_cycles / clock
            channels = network.arbiter.channels
            assert sorted(channels) == list(range(16))
            assert {c.ring_round_trip_s for c in channels.values()} == {ring_s}
        else:
            assert network.hop_latency_s == HOP_LATENCY_CYCLES / clock

        bus = simulator.broadcast_bus
        assert (bus is not None) == configuration.has_broadcast_bus
        if bus is not None:
            assert (bus.num_clusters, bus.clock_hz) == (16, 2.5e9)
            assert bus.bandwidth_bytes_per_s == (
                config.crossbar_wavelengths_per_waveguide * config.signalling_rate_bps / 8
            )
            assert bus.arbiter.ring_round_trip_s == ring_s

        if name.endswith("OCM"):
            channel_bandwidth = config.memory_bandwidth_per_controller_bytes_per_s
        else:
            channel_bandwidth = ECM_WIDTH_BITS * ECM_DATA_RATE_BPS / 8
        controllers = simulator.memory.controllers
        assert sorted(controllers) == list(range(16))
        for controller in controllers.values():
            assert controller.module.timings.access_latency_s == config.memory_latency_s
            assert controller.channel.bandwidth_bytes_per_s == channel_bandwidth

        assert sorted(simulator.hubs) == list(range(16))
        for hub in simulator.hubs.values():
            assert hub.mshr_pool.heaps.capacity == config.cluster.l2_mshrs
            assert hub.injection_queue.capacity == config.cluster.hub_queue_depth

    @pytest.mark.parametrize(
        "override, per_controller",
        [
            ({"memory_links_per_controller": 1}, 80e9),
            ({"memory_wavelengths_per_link": 16}, 40e9),
            ({"signalling_rate_bps": 20e9}, 320e9),
        ],
        ids=["links", "wavelengths", "rate"],
    )
    def test_ocm_links_follow_the_config(self, override, per_controller):
        """Each OCM link field reaches every replayed controller: its channel
        carries the config's per-controller bandwidth, and an idle read
        serializes its command and its line at that bandwidth."""
        config = CORONA_DEFAULT.with_overrides(override)
        assert config.memory_bandwidth_per_controller_bytes_per_s == per_controller
        for name in ("LMesh/OCM", "HMesh/OCM", "XBar/OCM"):
            simulator = SystemSimulator(configuration_by_name(name), config)
            controllers = simulator.memory.controllers.values()
            assert {c.channel.bandwidth_bytes_per_s for c in controllers} == {per_controller}
            read = simulator.memory.controllers[0].access(
                now=0.0, size_bytes=64, is_write=False
            )
            assert read.channel_delay == pytest.approx(
                (COMMAND_BYTES + 64) / per_controller + 2 * CHANNEL_LATENCY_S
            )


class TestHostCostGate:
    """Exact host-cost counters of a replayed miss, which host noise cannot
    move: calendar events and Python frames (function calls and generator
    resumptions, as ``sys.setprofile`` reports them) per miss, over a whole
    ``SystemSimulator.run`` of 2,000 requests at seed 1.

    A bound is the count this replay core measured, so a change that adds a
    frame to every miss (a wrapper, a property, a generated ``__new__``)
    fails here.  If a change adds model work on purpose, re-measure and
    lower or raise the bound with the change: the failure message lists
    the functions that ran most often, per miss.
    """

    REQUESTS = 2_000

    @pytest.mark.parametrize(
        ("name", "workload_name", "max_frames_per_miss"),
        [("XBar/OCM", "Uniform", 30.5), ("LMesh/ECM", "Hot Spot", 40.2)],
    )
    def test_frames_and_events_per_miss(self, name, workload_name, max_frames_per_miss):
        from repro.api import build_workload

        workload = build_workload(workload_name)
        trace = workload.generate_packed(seed=1, num_requests=self.REQUESTS)
        simulator = SystemSimulator(
            configuration_by_name(name), window_depth=workload.window
        )
        calls = collections.Counter()

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                calls[(code.co_filename.rsplit("/", 1)[-1], code.co_name)] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            simulator.run(trace)
        finally:
            sys.setprofile(previous)
        assert simulator._simulator.events_executed == 3 * self.REQUESTS
        frames_per_miss = sum(calls.values()) / self.REQUESTS
        busiest = ", ".join(
            f"{function} ({file}) {count / self.REQUESTS:.2f}"
            for (file, function), count in calls.most_common(12)
        )
        assert frames_per_miss <= max_frames_per_miss, (
            f"{name} {workload_name}: {frames_per_miss:.3f} Python frames per "
            f"miss, bound {max_frames_per_miss}; re-measure with "
            f"`python -m pytest tests/test_core_system.py -k HostCostGate`. "
            f"Per miss: {busiest}"
        )


class TestRetainedBytesGate:
    """Bytes a replay keeps per miss until its simulator is dropped, which
    sets how long a trace fits in memory: ``tracemalloc``'s traced memory
    after ``SystemSimulator.run`` at 8,000 requests minus that at 2,000
    (seed 1), divided by 6,000 (:mod:`tests.retained_bytes`).

    Each bound is the count this replay core measured plus 10%: 148.8 B on
    XBar/OCM Uniform and 75.0 B on LMesh/ECM Hot Spot under Python 3.11 and
    3.12 (147.3 and 74.7 B under 3.10).  Two doubles per miss are the
    statistics; about 24 B are completion rings still filling, because
    8,000 requests give the 1,024 threads fewer misses each than their
    window of 8; the rest is busy-interval lists and admission heaps.  A
    change that keeps more per miss on purpose re-measures and moves the
    bound with it.
    """

    @pytest.mark.parametrize(
        ("name", "workload_name", "max_bytes_per_miss"),
        [("XBar/OCM", "Uniform", 164.0), ("LMesh/ECM", "Hot Spot", 82.5)],
    )
    def test_retained_bytes_per_miss(self, name, workload_name, max_bytes_per_miss):
        from tests.retained_bytes import LONG, SHORT, retained_bytes_per_miss

        per_miss, top = retained_bytes_per_miss(name, workload_name)
        assert per_miss <= max_bytes_per_miss, (
            f"{name} {workload_name}: {per_miss:.1f} B retained per miss "
            f"({SHORT:,} -> {LONG:,} requests), bound {max_bytes_per_miss}; "
            f"re-measure with `PYTHONPATH=src python -m tests.retained_bytes`. "
            f"Top sites per miss: {', '.join(top)}"
        )


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
