"""Tests for the packed trace pipeline.

Covers the packed columnar representation (bit layout, builders, stream
round-trips), the binary trace file format, the shared-memory shipping layer,
and -- most importantly -- the bit-identity guarantees: packed generation
matches object generation field for field, and a packed replay produces
exactly the same :class:`WorkloadResult` as replaying the equivalent
:class:`TraceStream`, coherence fields included.
"""

from __future__ import annotations

import dataclasses

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
from repro.trace.packed import (
    KIND_BIT,
    SHARED_BIT,
    PackedTrace,
    PackedTraceBuilder,
    as_packed,
    pack_meta,
)
from repro.trace.record import AccessKind, TraceRecord, TraceStream
from repro.trace.splash2 import splash2_workload
from repro.trace.synthetic import uniform_workload
from tests.golden import TINY_MATRIX, digests, tiny_matrix


def _record_tuples(records):
    return [
        (
            r.thread_id,
            r.cluster_id,
            r.home_cluster,
            r.kind,
            r.address,
            r.gap_cycles,
            r.size_bytes,
            r.shared,
        )
        for r in records
    ]


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


class TestPackedStreamRoundTrip:
    def test_from_stream_to_stream_is_exact(self):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.4))
        stream = workload.generate(seed=3, num_requests=2048)
        packed = as_packed(stream)
        assert packed.total_requests == stream.total_requests
        assert _record_tuples(packed.to_stream().all_records()) == _record_tuples(
            stream.all_records()
        )

    def test_shared_flag_survives_packing(self):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.5))
        stream = workload.generate(seed=7, num_requests=1024)
        packed = as_packed(stream)
        assert [r.shared for r in packed.records()] == [
            r.shared for r in stream.all_records()
        ]
        assert packed.shared_fraction() == pytest.approx(stream.shared_fraction())

    def test_gaps_are_exact_float64(self):
        stream = uniform_workload().generate(seed=5, num_requests=512)
        packed = as_packed(stream)
        # Bit-exact, not approximately equal: the replay divides these.
        assert [r.gap_cycles for r in packed.records()] == [
            r.gap_cycles for r in stream.all_records()
        ]

    def test_generate_packed_matches_generate_synthetic(self):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.3))
        assert workload.generate_packed(seed=2, num_requests=2048) == as_packed(
            workload.generate(seed=2, num_requests=2048)
        )

    def test_generate_packed_matches_generate_splash_bursty(self):
        workload = splash2_workload("LU")
        assert workload.generate_packed(seed=4, num_requests=3000) == as_packed(
            workload.generate(seed=4, num_requests=3000)
        )

    def test_destination_histogram_matches_stream(self):
        workload = uniform_workload()
        stream = workload.generate(seed=1, num_requests=2048)
        assert as_packed(stream).destination_histogram() == (
            stream.destination_histogram()
        )


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
        stream = read_trace(path)
        assert isinstance(stream, TraceStream)
        assert _record_tuples(stream.all_records()) == _record_tuples(
            packed.to_stream().all_records()
        )

    def test_accepts_stream_input(self, tmp_path):
        stream = uniform_workload().generate(seed=2, num_requests=256)
        path = tmp_path / "trace.bin"
        write_trace_binary(stream, path)
        assert read_trace_binary(path) == as_packed(stream)

    def test_text_format_still_reads(self, tmp_path):
        stream = uniform_workload().generate(seed=2, num_requests=256)
        path = tmp_path / "trace.txt"
        write_trace(stream, path)
        assert read_trace(path).total_requests == 256

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
    """run(stream) and run(packed) must agree bit for bit."""

    def _assert_identical(self, stream_result, packed_result):
        for field in dataclasses.fields(stream_result):
            assert getattr(stream_result, field.name) == getattr(
                packed_result, field.name
            ), field.name

    @pytest.mark.parametrize("configuration", ["XBar/OCM", "LMesh/ECM"])
    def test_plain_replay_identical(self, configuration):
        workload = uniform_workload()
        stream = workload.generate(seed=1, num_requests=1500)
        packed = workload.generate_packed(seed=1, num_requests=1500)
        config = configuration_by_name(configuration)
        from_stream = SystemSimulator(config, window_depth=workload.window).run(
            stream
        )
        from_packed = SystemSimulator(config, window_depth=workload.window).run(
            packed
        )
        self._assert_identical(from_stream, from_packed)

    @pytest.mark.parametrize("configuration", ["XBar/OCM", "LMesh/ECM"])
    def test_coherent_replay_identical_including_coherence_fields(
        self, configuration
    ):
        workload = uniform_workload(sharing=SharingProfile(fraction=0.3))
        stream = workload.generate(seed=1, num_requests=1500)
        packed = workload.generate_packed(seed=1, num_requests=1500)
        config = configuration_by_name(configuration)
        from_stream = SystemSimulator(
            config, window_depth=workload.window, coherence=CoherenceConfig()
        ).run(stream)
        from_packed = SystemSimulator(
            config, window_depth=workload.window, coherence=CoherenceConfig()
        ).run(packed)
        assert from_stream.coherence_enabled and from_stream.shared_requests > 0
        self._assert_identical(from_stream, from_packed)

    def test_hand_built_stream_replays(self):
        trace = TraceStream("hand", num_clusters=16, threads_per_cluster=2)
        trace.add(
            TraceRecord(
                thread_id=0,
                cluster_id=0,
                home_cluster=5,
                kind=AccessKind.READ,
                address=(5 << 26) | 0x40,
                gap_cycles=10.0,
            )
        )
        result = SystemSimulator(configuration_by_name("XBar/OCM")).run(trace)
        assert result.num_requests == 1
