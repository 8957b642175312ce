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

from repro.api import OutputSpec, run
from repro.coherence import (
    CoherenceConfig,
    SharingProfile,
    home_for_line,
    shared_line_address,
)
from repro.coherence.sharing import SHARED_REGION_BIT
from repro.core.config import CORONA_DEFAULT
from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator, simulate_workload
from repro.harness.parallel import run_pairs
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
        mesh = low_performance_mesh(CORONA_DEFAULT.with_overrides({"num_clusters": 16}))
        message = Message(src=0, dst=0, message_type=MessageType.INVALIDATE)
        result = mesh.multicast(message, [1, 5, 0, 15], now=0.0)
        # Destination 0 == src is skipped.
        assert result.messages == 3
        assert result.hops > 0
        assert result.last_arrival > 0.0


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

    def test_broadcast_bus_follows_overrides(self):
        """The bus is built from the system's ``CoronaConfig``, like the
        crossbar: one waveguide's comb at the signalling rate, its token on
        the same ring round trip as the channel tokens."""
        config = CORONA_DEFAULT.with_overrides(
            {"signalling_rate_bps": 5e9, "token_ring_round_trip_cycles": 16}
        )
        simulator = SystemSimulator(
            configuration=configuration_by_name("XBar/OCM"),
            corona_config=config,
            coherence=CoherenceConfig(),
        )
        bus = simulator.broadcast_bus
        assert bus.bandwidth_bytes_per_s == pytest.approx(64 * 5e9 / 8)
        assert bus.arbiter.ring_round_trip_s == pytest.approx(3.2e-9)
        assert (
            bus.arbiter.ring_round_trip_s
            == simulator.network.arbiter.channels[0].ring_round_trip_s
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

    def test_directories_track_multi_sharer_lines(self):
        workload = _sharing_workload(fraction=0.5)
        simulator = SystemSimulator(
            configuration=configuration_by_name("XBar/OCM"),
            coherence=CoherenceConfig(),
        )
        simulator.run(workload.generate_packed(seed=1, num_requests=REQUESTS))
        histograms = [d.sharer_histogram() for d in simulator.coherence.directories]
        assert sum(sum(h.values()) for h in histograms) > 0
        # Read-mostly sharing must produce multi-sharer lines.
        assert any(count > 1 for h in histograms for count in h)

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


def _coherence_sweep(fractions, configurations, num_requests, jobs=1, **kwargs):
    """The sharing-fraction grid through the sweep engine."""
    return run_sweep(
        coherence_sweep_spec(
            fractions=fractions,
            configurations=configurations,
            num_requests=num_requests,
            **kwargs,
        ),
        jobs=jobs,
    )


class TestCoherenceSweep:
    def test_sweep_points_and_report(self, tmp_path):
        report = tmp_path / "report.md"
        outcome = _coherence_sweep(
            fractions=(0.0, 0.3),
            configurations=("LMesh/ECM", "XBar/OCM"),
            num_requests=2_000,
            output=OutputSpec(report=str(report)),
        )
        records = outcome.records
        assert [r.axis_values["fraction"] for r in records] == [
            0.0, 0.0, 0.3, 0.3,
        ]
        assert [r.result.configuration for r in records] == [
            "LMesh/ECM", "XBar/OCM", "LMesh/ECM", "XBar/OCM",
        ]
        assert digests(r.result for r in records) == SWEEP_2000
        zero = [r.result for r in records[:2]]
        assert all(r.invalidations_sent == 0 for r in zero)
        by_config = {r.result.configuration: r.result for r in records[2:]}
        assert (
            by_config["XBar/OCM"].average_invalidation_latency_s
            < by_config["LMesh/ECM"].average_invalidation_latency_s
        )
        # The report's coherence cost table: one row per record, with the
        # broadcast bus's lower invalidation latency at fraction 0.3.
        section = report.read_text().split("## Coherence cost", 1)[1]
        header, *rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("|") and not line.startswith("|---")
        ]
        assert len(rows) == 4
        column = {name: index for index, name in enumerate(header)}
        inval = {
            row[column["configuration"]]: float(row[column["inval ns"]])
            for row in rows
            if row[column["fraction"]] == "0.3"
        }
        assert inval["XBar/OCM"] < inval["LMesh/ECM"]

    def test_sweep_parallel_matches_serial(self):
        kwargs = dict(
            fractions=(0.2,),
            configurations=("XBar/OCM", "LMesh/ECM"),
            num_requests=1_500,
        )
        serial = [r.result for r in _coherence_sweep(jobs=1, **kwargs).records]
        parallel = [r.result for r in _coherence_sweep(jobs=2, **kwargs).records]
        assert serial == parallel
        assert digests(serial) == SWEEP_1500
