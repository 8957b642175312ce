"""Tests for the coherence traffic subsystem and its replay wiring.

Covers the sharing-aware trace generation, the timed MOESI directory engine
(broadcast vs unicast invalidation delivery, cache-to-cache forwards, dirty
writebacks), the bit-identical guarantee of the coherence-free path, the
in-process/pool equivalence of coherence-enabled replays, and the sweep
engine's sharing-fraction grid against golden digests.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import run
from repro.coherence import (
    CoherenceConfig,
    SHARED_REGION_BIT,
    SharingProfile,
    home_for_line,
    shared_line_address,
)
from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator, simulate_workload
from repro.harness.experiments import CoherenceSweepPoint, coherence_sweep_report
from repro.harness.parallel import run_pairs
from repro.network.broadcast import OpticalBroadcastBus
from repro.network.mesh import low_performance_mesh
from repro.network.message import Message, MessageType
from repro.sweeps import coherence_sweep_spec, run_sweep
from repro.trace.synthetic import uniform_workload
from tests.golden import (
    COHERENT_UNIFORM,
    SWEEP_1500,
    SWEEP_2000,
    coherent_uniform_scenario,
    digests,
)

REQUESTS = 3_000


def _sharing_workload(fraction=0.3, **profile_kwargs):
    return uniform_workload(
        sharing=SharingProfile(fraction=fraction, **profile_kwargs)
    )


def _run(configuration_name, workload, coherence=None, requests=REQUESTS):
    return simulate_workload(
        configuration_by_name(configuration_name),
        workload,
        num_requests=requests,
        coherence=coherence,
    )


class TestSharingProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            SharingProfile(fraction=1.5)
        with pytest.raises(ValueError):
            SharingProfile(num_lines=0)
        with pytest.raises(ValueError):
            SharingProfile(zipf_s=-1.0)
        with pytest.raises(ValueError):
            SharingProfile(write_fraction=2.0)

    def test_shared_addresses_live_in_their_own_region(self):
        for line in (0, 7, 511):
            address = shared_line_address(line, 64)
            assert address & SHARED_REGION_BIT
            # The home cluster sits in the same bit positions private
            # synthetic addresses use.
            assert ((address >> 26) & 0x3F) == home_for_line(line, 64)

    def test_trace_tagging_fraction_and_homes(self):
        workload = _sharing_workload(fraction=0.4)
        trace = workload.generate_packed(seed=1, num_requests=6_000)
        assert trace.shared_fraction() == pytest.approx(0.4, abs=0.05)
        for record in trace.records():
            if record.shared:
                assert record.address & SHARED_REGION_BIT
                line = (record.address & ~SHARED_REGION_BIT & ~(0x3F << 26)) // 64
                assert record.home_cluster == home_for_line(line, 64)
            else:
                assert not record.address & SHARED_REGION_BIT

    def test_fraction_zero_generates_identical_trace(self):
        plain = uniform_workload().generate_packed(seed=5, num_requests=2_000)
        zero = uniform_workload(
            sharing=SharingProfile(fraction=0.0)
        ).generate_packed(seed=5, num_requests=2_000)
        assert plain == zero


class TestCoherenceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoherenceConfig(broadcast_threshold=0)
        with pytest.raises(ValueError):
            CoherenceConfig(directory_latency_s=-1.0)


class TestInterconnectMulticast:
    def test_mesh_unicast_fanout_counts_messages_and_hops(self):
        mesh = low_performance_mesh(num_clusters=16, clock_hz=5e9)
        message = Message(src=0, dst=0, message_type=MessageType.INVALIDATE)
        result = mesh.multicast(message, [1, 5, 0, 15], now=0.0)
        # Destination 0 == src is skipped.
        assert result.messages == 3
        assert result.hops > 0
        assert result.last_arrival > 0.0

    def test_broadcast_bus_multicast_is_one_message(self):
        bus = OpticalBroadcastBus(num_clusters=16)
        message = Message(src=0, dst=0, message_type=MessageType.INVALIDATE)
        result = bus.multicast(message, list(range(1, 16)), now=0.0)
        assert result.messages == 1
        assert result.hops == 0
        assert bus.broadcasts_sent == 1
        assert bus.unicast_messages_avoided == 14
        assert bus.busy_seconds > 0.0
        assert bus.occupancy(1e-6) == pytest.approx(bus.busy_seconds / 1e-6)

    def test_broadcast_bus_multicast_all_local_is_free(self):
        bus = OpticalBroadcastBus(num_clusters=16)
        message = Message(src=3, dst=3, message_type=MessageType.INVALIDATE)
        result = bus.multicast(message, [3], now=1e-9)
        assert result.messages == 0
        assert result.last_arrival == 1e-9


class TestCoherentReplay:
    def test_fraction_zero_is_bit_identical_to_plain_engine(self):
        workload = uniform_workload()
        plain = _run("XBar/OCM", workload)
        coherent = _run("XBar/OCM", workload, coherence=CoherenceConfig())
        assert coherent.coherence_enabled and not plain.coherence_enabled
        for field in dataclasses.fields(plain):
            if field.name == "coherence_enabled":
                continue
            assert getattr(plain, field.name) == getattr(coherent, field.name), (
                field.name
            )

    def test_photonic_broadcast_vs_electrical_unicast(self):
        workload = _sharing_workload(fraction=0.3)
        photonic = _run("XBar/OCM", workload, coherence=CoherenceConfig())
        electrical = _run("LMesh/ECM", workload, coherence=CoherenceConfig())

        for result in (photonic, electrical):
            assert result.coherence_enabled
            assert result.shared_requests > 0
            assert result.invalidations_sent > 0
            assert result.cache_to_cache_transfers > 0
            assert result.dirty_writebacks > 0
            assert result.average_invalidation_latency_s > 0.0
            assert result.average_cache_to_cache_latency_s > 0.0

        # The broadcast bus exists only on the Corona photonic stack.
        assert photonic.invalidation_broadcasts > 0
        assert photonic.broadcast_occupancy > 0.0
        assert electrical.invalidation_broadcasts == 0
        assert electrical.broadcast_occupancy == 0.0
        assert electrical.invalidation_unicasts > photonic.invalidation_unicasts

        # The acceptance criterion: broadcast delivery beats per-sharer
        # unicast on the electrical mesh by a wide, stable margin.
        assert (
            photonic.average_invalidation_latency_s
            < 0.5 * electrical.average_invalidation_latency_s
        )

    def test_directory_never_broadcasts_without_the_bus(self):
        workload = _sharing_workload(fraction=0.5, write_fraction=0.3)
        simulator = SystemSimulator(
            configuration=configuration_by_name("HMesh/ECM"),
            coherence=CoherenceConfig(broadcast_threshold=2),
        )
        trace = workload.generate_packed(seed=1, num_requests=REQUESTS)
        simulator.run(trace)
        assert simulator.broadcast_bus is None
        assert all(
            directory.broadcasts_used == 0
            for directory in simulator.coherence.directories
        )
        assert simulator.coherence.stats.unicast_invalidations > 0

    def test_sharer_histogram_merges_directories(self):
        workload = _sharing_workload(fraction=0.5)
        simulator = SystemSimulator(
            configuration=configuration_by_name("XBar/OCM"),
            coherence=CoherenceConfig(),
        )
        simulator.run(workload.generate_packed(seed=1, num_requests=REQUESTS))
        histogram = simulator.coherence.sharer_histogram()
        assert sum(histogram.values()) > 0
        # Read-mostly sharing must produce multi-sharer lines.
        assert any(count > 1 for count in histogram)

    def test_execution_time_grows_with_sharing_on_electrical(self):
        """Coherence traffic is not free: invalidation fan-out plus gating
        must not make the electrical replay faster."""
        none = _run("LMesh/ECM", _sharing_workload(0.0), CoherenceConfig())
        heavy = _run(
            "LMesh/ECM",
            _sharing_workload(0.5, write_fraction=0.4),
            CoherenceConfig(),
        )
        assert heavy.invalidations_sent > 0
        assert heavy.average_latency_s > 0.0
        assert none.invalidations_sent == 0


class TestSerialParallelCoherence:
    def test_run_pairs_pool_matches_serial_for_coherent_pair(self):
        """One coherence-enabled (configuration, workload) pair must replay
        bit-identically in a worker process and in-process."""
        workload = _sharing_workload(fraction=0.3)
        trace = workload.generate_packed(seed=1, num_requests=2_000)
        pairs = [
            ("XBar/OCM", trace, workload.window, CoherenceConfig()),
            ("LMesh/ECM", trace, workload.window, CoherenceConfig()),
        ]
        serial = run_pairs(pairs, jobs=1)
        parallel = run_pairs(pairs, jobs=2)
        assert len(serial) == len(parallel) == 2
        for s, p in zip(serial, parallel):
            for field in dataclasses.fields(s):
                assert getattr(s, field.name) == getattr(p, field.name), field.name

    def test_matrix_coherence_plumbs_through_both_runners(self):
        """The scenario's coherence config reaches the replay in process and
        in a worker alike, reproducing the golden digest."""
        serial = run(coherent_uniform_scenario(), jobs=1).results
        pooled = run(coherent_uniform_scenario(), jobs=2).results
        assert serial == pooled
        assert all(result.coherence_enabled for result in serial)
        assert digests(serial) == COHERENT_UNIFORM


def _coherence_sweep(fractions, configurations, num_requests, jobs=1):
    """The sharing-fraction grid through the sweep engine, grouped into
    report points like the ``coherence-sweep`` experiment does."""
    outcome = run_sweep(
        coherence_sweep_spec(
            fractions=fractions,
            configurations=configurations,
            num_requests=num_requests,
        ),
        jobs=jobs,
    )
    return [
        CoherenceSweepPoint(
            sharing_fraction=fraction,
            results=tuple(
                record.result
                for record in outcome.records
                if record.axis_values["fraction"] == fraction
            ),
        )
        for fraction in fractions
    ]


class TestCoherenceSweep:
    def test_sweep_points_and_report(self):
        points = _coherence_sweep(
            fractions=(0.0, 0.3),
            configurations=("LMesh/ECM", "XBar/OCM"),
            num_requests=2_000,
        )
        assert [p.sharing_fraction for p in points] == [0.0, 0.3]
        for point in points:
            assert [r.configuration for r in point.results] == [
                "LMesh/ECM",
                "XBar/OCM",
            ]
        assert digests(r for p in points for r in p.results) == SWEEP_2000
        zero, shared = points
        assert all(r.invalidations_sent == 0 for r in zero.results)
        by_config = {r.configuration: r for r in shared.results}
        assert (
            by_config["XBar/OCM"].average_invalidation_latency_s
            < by_config["LMesh/ECM"].average_invalidation_latency_s
        )
        report = coherence_sweep_report(points)
        assert "Sharing fraction 0.3" in report
        assert "XBar/OCM" in report

    def test_sweep_parallel_matches_serial(self):
        kwargs = dict(
            fractions=(0.2,),
            configurations=("XBar/OCM", "LMesh/ECM"),
            num_requests=1_500,
        )
        serial = _coherence_sweep(jobs=1, **kwargs)[0].results
        assert serial == _coherence_sweep(jobs=2, **kwargs)[0].results
        assert digests(serial) == SWEEP_1500
