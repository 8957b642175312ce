"""Tests for the packed trace pipeline.

Covers the packed columnar representation (bit layout, builders, record
round-trips), the binary trace file format, the shared-memory shipping layer,
and -- most importantly -- the bit-identity guarantees: packed generation and
packed replay reproduce, bit for bit, the traces and results the record-object
path produced (pinned as digests), coherence fields included.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.coherence import CoherenceConfig, SharingProfile
from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator
from repro.harness.parallel import TraceShipment, _resolve_trace
from repro.trace.io import (
    read_trace,
    read_trace_binary,
    write_trace,
    write_trace_binary,
)
from repro.analysis.runtime import result_digest
from repro.trace.packed import (
    KIND_BIT,
    SHARED_BIT,
    PackedTrace,
    PackedTraceBuilder,
    pack_meta,
)
from repro.trace.splash2 import splash2_workload
from repro.trace.synthetic import uniform_workload
from tests.golden import TINY_MATRIX, digests, tiny_matrix

#: :func:`_trace_digest` of the record-object generator's output (packed),
#: recorded before the packed columns became the only representation.
GOLDEN_TRACES = {
    "uniform-s0.3-seed2-2048": (
        "7cf81ac5cde7b897e6742e31f609dc43c62c71dc8a5c3f1c9844c99bc2142db3"
    ),
    "lu-seed4-3000": (
        "f582ad2cf399ec1c8575bd5ceca37d768092d86c878a2660c45de1c9389ccc96"
    ),
}

#: ``result_digest`` of record-object replays of the seed-1, 1,500-request
#: Uniform traces (``coherent``: sharing fraction 0.3 with a
#: :class:`CoherenceConfig`), recorded at the same commit.
GOLDEN_REPLAYS = {
    "plain/XBar/OCM": (
        "741394a3405a73d5a7aff3f2ab8e3bb8588ab153eb802410084ce895ee19937c"
    ),
    "plain/LMesh/ECM": (
        "3bd2a64275f1d59237a347f1c9a65ee33a67afa29d0857fd6adcc317acf60f25"
    ),
    "coherent/XBar/OCM": (
        "ab44f1ea1fa21f4d1e6a3c66aa3cd582473d251dd6bf58167eec4a6f001e27b5"
    ),
    "coherent/LMesh/ECM": (
        "288817d35991953386c4c6d855ea65d14f4a92bd9526a84118def6caba7648b3"
    ),
}


def _trace_digest(trace: PackedTrace) -> str:
    """SHA-256 over a trace's header and all five columns."""
    digest = hashlib.sha256(repr(tuple(trace.header())).encode("utf-8"))
    for column in (
        trace.thread_ids, trace.offsets, trace.meta, trace.addresses, trace.gaps
    ):
        digest.update(bytes(memoryview(column)))
    return digest.hexdigest()


def _rebuild(trace: PackedTrace) -> PackedTrace:
    """``trace`` decoded into records and packed again record by record."""
    builder = PackedTraceBuilder(
        trace.name,
        num_clusters=trace.num_clusters,
        threads_per_cluster=trace.threads_per_cluster,
        description=trace.description,
    )
    for r in trace.records():
        builder.append(
            r.thread_id, r.home_cluster, r.is_write, r.shared, r.address,
            r.gap_cycles, r.size_bytes,
        )
    return builder.build()


class TestPackedMetaWord:
    def test_bit_layout_round_trips(self):
        word = pack_meta(
            thread_id=1023, home_cluster=63, is_write=True, shared=True, size_bytes=64
        )
        assert word & KIND_BIT
        assert word & SHARED_BIT
        assert (word >> 2) & ((1 << 20) - 1) == 1023
        assert (word >> 22) & ((1 << 16) - 1) == 63
        assert word >> 38 == 64

    def test_field_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_meta(1 << 20, 0, False, False, 64)
        with pytest.raises(ValueError):
            pack_meta(0, 1 << 16, False, False, 64)
        with pytest.raises(ValueError):
            pack_meta(0, 0, False, False, 1 << 26)
        with pytest.raises(ValueError):
            pack_meta(0, 0, False, False, 0)


class TestPackedTraceBuilder:
    def test_non_contiguous_thread_rejected(self):
        builder = PackedTraceBuilder("t", num_clusters=4, threads_per_cluster=2)
        builder.append(0, 1, False, False, 0x40, 5.0)
        builder.append(1, 1, False, False, 0x80, 5.0)
        with pytest.raises(ValueError):
            builder.append(0, 1, False, False, 0xC0, 5.0)

    def test_thread_beyond_cluster_count_rejected(self):
        builder = PackedTraceBuilder("t", num_clusters=2, threads_per_cluster=2)
        with pytest.raises(ValueError):
            builder.append(10, 0, False, False, 0x40, 5.0)

    def test_negative_gap_rejected(self):
        builder = PackedTraceBuilder("t", num_clusters=4, threads_per_cluster=2)
        with pytest.raises(ValueError):
            builder.append(0, 1, False, False, 0x40, -1.0)

    def test_build_time_grows_linearly_with_threads(self):
        """Building 8,192 one-record threads takes under 16x the process
        time of 1,024: linear is 8x, while checking each new thread against
        a scan of every earlier one made it about 64x."""

        def best_process_time(threads: int) -> float:
            times = []
            for _ in range(3):
                builder = PackedTraceBuilder(
                    "t", num_clusters=64, threads_per_cluster=128
                )
                start = time.process_time()
                for thread_id in range(threads):
                    builder.append(thread_id, 0, False, False, 0x40, 1.0)
                times.append(time.process_time() - start)
            return min(times)

        assert best_process_time(8_192) < 16 * best_process_time(1_024)


class TestPackedStreamRoundTrip:
    def test_records_round_trip_is_exact(self):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.4))
        packed = workload.generate_packed(seed=3, num_requests=2048)
        assert _rebuild(packed) == packed

    def test_shared_flag_survives_packing(self):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.5))
        packed = workload.generate_packed(seed=7, num_requests=1024)
        flags = [r.shared for r in packed.records()]
        assert flags == [bool(word & SHARED_BIT) for word in packed.meta]
        assert 0 < sum(flags) < len(flags)
        assert packed.shared_fraction() == pytest.approx(sum(flags) / len(flags))
        assert [r.shared for r in _rebuild(packed).records()] == flags

    def test_gaps_are_exact_float64(self):
        packed = uniform_workload().generate_packed(seed=5, num_requests=512)
        # Bit-exact, not approximately equal: the replay divides these.
        assert [r.gap_cycles for r in packed.records()] == list(packed.gaps)
        assert _rebuild(packed).gaps == packed.gaps

    def test_generate_packed_matches_generate_synthetic(self):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.3))
        packed = workload.generate_packed(seed=2, num_requests=2048)
        assert _trace_digest(packed) == GOLDEN_TRACES["uniform-s0.3-seed2-2048"]

    def test_generate_packed_matches_generate_splash_bursty(self):
        packed = splash2_workload("LU").generate_packed(seed=4, num_requests=3000)
        assert _trace_digest(packed) == GOLDEN_TRACES["lu-seed4-3000"]

    def test_destination_histogram_matches_stream(self):
        packed = uniform_workload().generate_packed(seed=1, num_requests=2048)
        histogram = {}
        for record in packed.records():
            home = record.home_cluster
            histogram[home] = histogram.get(home, 0) + 1
        assert packed.destination_histogram() == histogram


class TestBinaryTraceFormat:
    def test_round_trip_is_exact_including_shared_flag(self, tmp_path):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.4))
        packed = workload.generate_packed(seed=3, num_requests=2048)
        path = tmp_path / "trace.bin"
        write_trace_binary(packed, path)
        loaded = read_trace_binary(path)
        assert loaded == packed
        assert [r.shared for r in loaded.records()] == [
            r.shared for r in packed.records()
        ]

    def test_read_trace_sniffs_binary_format(self, tmp_path):
        packed = uniform_workload().generate_packed(seed=1, num_requests=512)
        path = tmp_path / "trace.bin"
        write_trace_binary(packed, path)
        assert read_trace(path) == packed

    def test_text_format_still_reads(self, tmp_path):
        packed = uniform_workload().generate_packed(seed=2, num_requests=256)
        path = tmp_path / "trace.txt"
        write_trace(packed, path)
        loaded = read_trace(path)
        assert loaded.total_requests == 256
        assert loaded.meta == packed.meta
        assert loaded.addresses == packed.addresses

    def test_rejects_non_binary_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_text("not a binary trace")
        with pytest.raises(ValueError):
            read_trace_binary(path)

    def test_rejects_truncated_file(self, tmp_path):
        packed = uniform_workload().generate_packed(seed=1, num_requests=512)
        path = tmp_path / "trace.bin"
        write_trace_binary(packed, path)
        data = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            read_trace_binary(tmp_path / "cut.bin")


class TestBufferShipping:
    def test_buffer_round_trip_is_zero_copy_equal(self):
        packed = uniform_workload().generate_packed(seed=1, num_requests=1024)
        buffer = bytearray(packed.nbytes())
        assert packed.copy_into(buffer) == packed.nbytes()
        view = PackedTrace.from_buffer(packed.header(), buffer)
        assert view == packed
        # The view aliases the buffer rather than copying it.
        assert view.meta.obj is not None

    def test_shipment_resolves_back_to_equal_trace(self):
        from repro.harness.parallel import _release_worker_cache

        packed = uniform_workload().generate_packed(seed=1, num_requests=512)
        shipment = TraceShipment(packed)
        try:
            resolved = _resolve_trace(shipment.handle)
            assert resolved == packed
            del resolved
        finally:
            # Mirror worker shutdown: release the cached views before the
            # parent unlinks the block.
            _release_worker_cache()
            shipment.close()

    def test_post_fork_shipment_never_uses_fork_registry(self, monkeypatch):
        """Without shared memory, the traces a pool run ships after its
        workers started travel by value -- and still replay to the golden
        digests."""
        from repro.harness import parallel

        shipped = []

        class RecordingShipment(TraceShipment):
            def __init__(self, packed):
                super().__init__(packed)
                shipped.append(self)

        monkeypatch.setattr(parallel, "_shared_memory", None)
        monkeypatch.setattr(parallel, "TraceShipment", RecordingShipment)
        matrix = tiny_matrix()
        results = parallel.ParallelEvaluationRunner(matrix=matrix, jobs=2).run()
        assert len(shipped) == len(matrix.workloads())
        assert all(shipment.handle is shipment.packed for shipment in shipped)
        assert digests(results) == TINY_MATRIX

    def test_buffer_backed_replay_matches_array_backed(self):
        workload = uniform_workload()
        packed = workload.generate_packed(seed=1, num_requests=800)
        buffer = bytearray(packed.nbytes())
        packed.copy_into(buffer)
        view = PackedTrace.from_buffer(packed.header(), buffer)
        configuration = configuration_by_name("XBar/OCM")
        direct = SystemSimulator(configuration, window_depth=workload.window).run(
            packed
        )
        mapped = SystemSimulator(configuration, window_depth=workload.window).run(
            view
        )
        assert direct == mapped


class TestPackedReplayEquivalence:
    """Packed replays reproduce the record-object replays bit for bit."""

    @pytest.mark.parametrize("configuration", ["XBar/OCM", "LMesh/ECM"])
    def test_plain_replay_identical(self, configuration):
        workload = uniform_workload()
        packed = workload.generate_packed(seed=1, num_requests=1500)
        config = configuration_by_name(configuration)
        result = SystemSimulator(config, window_depth=workload.window).run(packed)
        assert result_digest(result) == GOLDEN_REPLAYS[f"plain/{configuration}"]

    @pytest.mark.parametrize("configuration", ["XBar/OCM", "LMesh/ECM"])
    def test_coherent_replay_identical_including_coherence_fields(
        self, configuration
    ):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.3))
        packed = workload.generate_packed(seed=1, num_requests=1500)
        config = configuration_by_name(configuration)
        result = SystemSimulator(
            config, window_depth=workload.window, coherence=CoherenceConfig()
        ).run(packed)
        assert result.coherence_enabled and result.shared_requests > 0
        assert result_digest(result) == GOLDEN_REPLAYS[f"coherent/{configuration}"]

    def test_hand_built_stream_replays(self):
        builder = PackedTraceBuilder("hand", num_clusters=16, threads_per_cluster=2)
        builder.append(0, 5, False, False, (5 << 26) | 0x40, 10.0)
        result = SystemSimulator(configuration_by_name("XBar/OCM")).run(
            builder.build()
        )
        assert result.num_requests == 1
