"""Tests for trace records, synthetic workloads, SPLASH-2 models and trace I/O."""


import pytest

from repro.core.config import CORONA_DEFAULT
from repro.trace.gaps import draw_gap
from repro.trace.io import read_trace, write_trace
from repro.trace.packed import KIND_BIT, PackedTraceBuilder
from repro.trace.record import AccessKind, TraceRecord
from repro.trace.splash2 import (
    SPLASH2_ORDER,
    SPLASH2_PROFILES,
    splash2_workload,
    splash2_workloads,
)
from repro.trace.synthetic import (
    bit_reversal_destination,
    bit_reversal_workload,
    hot_spot_workload,
    neighbor_destination,
    neighbor_workload,
    synthetic_workloads,
    tornado_destination,
    transpose_destination,
    transpose_workload,
    uniform_workload,
)

import random


class TestTraceRecord:
    def test_valid_record(self):
        record = TraceRecord(
            thread_id=0,
            cluster_id=0,
            home_cluster=5,
            kind=AccessKind.READ,
            address=0x1000,
            gap_cycles=10.0,
        )
        assert record.size_bytes == 64
        assert not record.is_write

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            TraceRecord(0, 0, 0, AccessKind.READ, 0, gap_cycles=-1.0)

    def test_access_kind_codes(self):
        assert AccessKind.from_code("R") is AccessKind.READ
        assert AccessKind.from_code("W") is AccessKind.WRITE
        with pytest.raises(ValueError):
            AccessKind.from_code("X")


class TestPackedTrace:
    def _builder(self):
        return PackedTraceBuilder("t", num_clusters=64, threads_per_cluster=16)

    def test_threads_created_lazily(self):
        builder = self._builder()
        builder.append(17, 0, False, False, 0x40 * 17, 5.0)
        trace = builder.build()
        assert list(trace.thread_segments()) == [(17, 1, 0, 1)]
        assert trace.total_requests == 1

    def test_destination_histogram(self):
        builder = self._builder()
        for thread_id, home in ((0, 3), (1, 3), (2, 9)):
            builder.append(thread_id, home, False, False, 0x40 * thread_id, 5.0)
        assert builder.build().destination_histogram() == {3: 2, 9: 1}

    def test_thread_beyond_cluster_count_rejected(self):
        builder = PackedTraceBuilder("t", num_clusters=2, threads_per_cluster=2)
        builder.append(3, 0, False, False, 0x40, 5.0)
        with pytest.raises(ValueError, match="thread 4 maps to cluster 2"):
            builder.append(4, 0, False, False, 0x80, 5.0)
        assert list(builder.build().thread_segments()) == [(3, 1, 0, 1)]


class TestGapDistribution:
    def test_mean_is_preserved(self):
        rng = random.Random(7)
        samples = [draw_gap(rng, 100.0) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(100.0, rel=0.05)

    def test_zero_mean_gives_zero(self):
        assert draw_gap(random.Random(1), 0.0) == 0.0

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            draw_gap(random.Random(1), -1.0)


class TestSyntheticPatterns:
    def test_tornado_destination_shifts_by_half_radix(self):
        # Cluster (0, 0) -> (3, 3) on an 8x8 grid.
        assert tornado_destination(0, 64) == 3 * 8 + 3

    def test_transpose_destination(self):
        # Cluster (1, 2) (= id 17) -> (2, 1) (= id 10).
        assert transpose_destination(17, 64) == 10

    def test_transpose_is_involution(self):
        for cluster in range(64):
            assert transpose_destination(transpose_destination(cluster, 64), 64) == cluster

    def test_tornado_is_permutation(self):
        destinations = {tornado_destination(c, 64) for c in range(64)}
        assert destinations == set(range(64))

    def test_patterns_need_square_cluster_count(self):
        with pytest.raises(ValueError):
            tornado_destination(0, 60)

    def test_bit_reversal_destination(self):
        # Cluster 0b000001 -> 0b100000 on 64 clusters.
        assert bit_reversal_destination(1, 64) == 32
        assert bit_reversal_destination(0, 64) == 0
        # Palindromic ids map to themselves.
        assert bit_reversal_destination(0b100001, 64) == 0b100001

    def test_bit_reversal_is_involution_and_permutation(self):
        destinations = set()
        for cluster in range(64):
            destination = bit_reversal_destination(cluster, 64)
            destinations.add(destination)
            assert bit_reversal_destination(destination, 64) == cluster
        assert destinations == set(range(64))

    def test_bit_reversal_needs_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reversal_destination(0, 36)

    def test_neighbor_destination_wraps(self):
        assert neighbor_destination(0, 64) == 1
        assert neighbor_destination(63, 64) == 0

    def test_new_patterns_generate_valid_traces(self):
        for workload in (bit_reversal_workload(), neighbor_workload()):
            trace = workload.generate_packed(seed=1, num_requests=2048)
            assert trace.total_requests == 2048
            # Permutation patterns hit every cluster's memory controller.
            assert len(trace.destination_histogram()) == 64


class TestSyntheticWorkloads:
    def test_workloads_in_paper_order_plus_extensions(self):
        names = [w.name for w in synthetic_workloads()]
        assert names == [
            "Uniform",
            "Hot Spot",
            "Tornado",
            "Transpose",
            "Bit Reversal",
            "Neighbor",
        ]

    def test_paper_request_counts(self):
        assert all(w.num_requests == 1_000_000 for w in synthetic_workloads())

    def test_generation_respects_request_count(self):
        trace = uniform_workload().generate_packed(seed=1, num_requests=4096)
        assert trace.total_requests == 4096
        assert max(trace.destination_histogram()) < trace.num_clusters

    def test_every_thread_gets_requests(self):
        trace = uniform_workload().generate_packed(seed=1, num_requests=2048)
        segments = list(trace.thread_segments())
        assert len(segments) == 1024
        assert all(stop - start == 2 for _t, _c, start, stop in segments)

    def test_hot_spot_targets_single_cluster(self):
        trace = hot_spot_workload(hot_cluster=7).generate_packed(seed=1, num_requests=2048)
        assert set(trace.destination_histogram()) == {7}

    def test_uniform_spreads_destinations(self):
        trace = uniform_workload().generate_packed(seed=1, num_requests=8192)
        histogram = trace.destination_histogram()
        assert len(histogram) == 64
        assert max(histogram.values()) < 4 * min(histogram.values())

    def test_transpose_trace_destinations_match_permutation(self):
        trace = transpose_workload().generate_packed(seed=1, num_requests=2048)
        for record in trace.records():
            assert record.home_cluster == transpose_destination(record.cluster_id, 64)

    def test_write_fraction_controls_mix(self):
        trace = uniform_workload(write_fraction=0.0).generate_packed(
            seed=1, num_requests=2048
        )
        assert not any(word & KIND_BIT for word in trace.meta)

    def test_seed_determinism(self):
        first = uniform_workload().generate_packed(seed=5, num_requests=1024)
        second = uniform_workload().generate_packed(seed=5, num_requests=1024)
        assert first == second

    def test_different_seeds_differ(self):
        first = uniform_workload().generate_packed(seed=5, num_requests=1024)
        second = uniform_workload().generate_packed(seed=6, num_requests=1024)
        assert [r.home_cluster for r in first.records()] != [
            r.home_cluster for r in second.records()
        ]

    def test_small_system_shape(self):
        workload = uniform_workload(num_clusters=16, threads_per_cluster=2)
        trace = workload.generate_packed(seed=1, num_requests=512)
        assert trace.num_clusters == 16
        assert max(r.home_cluster for r in trace.records()) < 16

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            uniform_workload(window=0)


class TestSplash2Workloads:
    def test_eleven_benchmarks_in_order(self):
        assert len(SPLASH2_ORDER) == 11
        assert [w.name for w in splash2_workloads()] == SPLASH2_ORDER

    def test_paper_request_counts_match_table3(self):
        assert SPLASH2_PROFILES["FFT"].paper_requests == 176_000_000
        assert SPLASH2_PROFILES["Ocean"].paper_requests == 240_000_000
        assert SPLASH2_PROFILES["Cholesky"].paper_requests == 600_000

    def test_bandwidth_classes(self):
        # Low-bandwidth group demands less than ECM's 0.96 TB/s.
        for name in ("Barnes", "Radiosity", "Volrend", "Water-Sp"):
            assert SPLASH2_PROFILES[name].demand_bandwidth_tbps(CORONA_DEFAULT) < 0.5
        # High-bandwidth group demands several TB/s.
        for name in ("FFT", "Radix", "Ocean"):
            assert SPLASH2_PROFILES[name].demand_bandwidth_tbps(CORONA_DEFAULT) > 2.0
        # FMM sits just above what ECM provides.
        assert 0.96 < SPLASH2_PROFILES["FMM"].demand_bandwidth_tbps(CORONA_DEFAULT) < 2.5

    def test_bursty_benchmarks_have_burst_parameters(self):
        for name in ("LU", "Raytrace"):
            profile = SPLASH2_PROFILES[name]
            assert profile.burst_period > 0
            assert profile.burst_length > 0

    def test_generation_shape(self):
        trace = splash2_workload("Barnes").generate_packed(seed=1, num_requests=4096)
        assert trace.total_requests == 4096
        assert max(trace.destination_histogram()) < trace.num_clusters

    def test_locality_fraction_reflected_in_destinations(self):
        workload = splash2_workload("Water-Sp")
        trace = workload.generate_packed(seed=1, num_requests=16384)
        local = sum(1 for r in trace.records() if r.home_cluster == r.cluster_id)
        fraction = local / trace.total_requests
        expected = workload.profile.local_fraction
        assert fraction == pytest.approx(expected + (1 - expected) / 64, abs=0.05)

    def test_burst_concentration_creates_hot_destinations(self):
        trace = splash2_workload("LU").generate_packed(seed=1, num_requests=30000)
        histogram = trace.destination_histogram()
        hottest = max(histogram.values())
        coolest = min(histogram.values())
        assert hottest > 3 * coolest

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            splash2_workload("NotABenchmark")

    def test_default_request_count_is_paper_count(self):
        assert splash2_workload("FFT").num_requests == 176_000_000

    def test_windows_reflect_memory_level_parallelism(self):
        assert splash2_workload("FFT").window > splash2_workload("Barnes").window


class TestTraceIo:
    def test_roundtrip(self, tmp_path):
        trace = uniform_workload().generate_packed(seed=3, num_requests=1024)
        path = tmp_path / "uniform.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.total_requests == trace.total_requests
        assert loaded.num_clusters == trace.num_clusters
        original = list(trace.records())
        restored = list(loaded.records())
        assert [r.address for r in original] == [r.address for r in restored]
        assert [r.kind for r in original] == [r.kind for r in restored]
        assert [r.home_cluster for r in original] == [r.home_cluster for r in restored]

    def test_gap_precision_preserved_to_4_decimals(self, tmp_path):
        trace = uniform_workload().generate_packed(seed=3, num_requests=256)
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        for original, restored in zip(trace.gaps, loaded.gaps):
            assert restored == pytest.approx(original, abs=1e-3)

    def test_shared_flag_roundtrip(self, tmp_path):
        from repro.coherence import SharingProfile

        workload = uniform_workload(sharing=SharingProfile(fraction=0.4))
        trace = workload.generate_packed(seed=3, num_requests=2048)
        assert trace.shared_fraction() > 0
        path = tmp_path / "shared.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert [r.shared for r in loaded.records()] == [
            r.shared for r in trace.records()
        ]

    def test_reject_non_trace_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("this is not a trace\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_reject_malformed_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            "# corona-trace v1 name='x' clusters=64 threads_per_cluster=16\n"
            "0 1 R deadbeef\n"
        )
        with pytest.raises(ValueError, match=r"bad\.trace:2: expected 6 or 7 fields"):
            read_trace(path)


class TestTextTraceErrors:
    """Every text parse error names the offending ``path:line``."""

    HEADER = "# corona-trace v1 name='x' clusters=4 threads_per_cluster=2\n"

    def _read(self, tmp_path, *lines):
        path = tmp_path / "bad.trace"
        path.write_text(self.HEADER + "".join(line + "\n" for line in lines))
        return read_trace(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param(
                ["0 1 R 40 1.0 64", "1 9 R 80 1.0 64"],
                r"bad\.trace:3: home cluster 9 out of range for 4 clusters",
                id="home-out-of-range",
            ),
            pytest.param(
                ["0 1 R zz 1.0 64"],
                r"bad\.trace:2: invalid literal .* base 16: 'zz'",
                id="bad-hex-address",
            ),
            pytest.param(
                ["8 1 R 40 1.0 64"],
                r"bad\.trace:2: thread 8 maps to cluster 4",
                id="thread-beyond-header",
            ),
            pytest.param(
                ["0 1 R 40 -1.0 64"], r"bad\.trace:2: gap cycles", id="negative-gap"
            ),
            pytest.param(
                ["0 1 X 40 1.0 64"], r"bad\.trace:2: unknown access kind", id="bad-kind"
            ),
        ],
    )
    def test_errors_name_path_and_line(self, tmp_path, lines, message):
        with pytest.raises(ValueError, match=message):
            self._read(tmp_path, *lines)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# corona-trace v1 name='x' clusters=four threads_per_cluster=2\n")
        with pytest.raises(ValueError, match=r"bad\.trace:1: "):
            read_trace(path)

    def test_interleaved_threads_group_by_first_appearance(self, tmp_path):
        from repro.core.configs import configuration_by_name
        from repro.core.system import SystemSimulator

        grouped = ["3 1 R 40 1.0 64", "3 2 W 80 2.0 64", "0 3 R c0 1.5 64 S"]
        interleaved = [grouped[0], grouped[2], grouped[1]]
        loaded = self._read(tmp_path, *interleaved)
        assert list(loaded.thread_ids) == [3, 0]
        assert [r.address for r in loaded.records()] == [0x40, 0x80, 0xC0]
        assert loaded == self._read(tmp_path, *grouped)
        configuration = configuration_by_name("XBar/OCM")
        replays = [
            SystemSimulator(configuration).run(self._read(tmp_path, *lines))
            for lines in (grouped, interleaved)
        ]
        assert replays[0] == replays[1]
