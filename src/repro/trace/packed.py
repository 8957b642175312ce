"""Packed columnar trace representation -- the only trace form the
generators build, the I/O layer reads and writes, and the replay engine
consumes.

At paper scale (1 M-240 M requests per workload) per-record objects would
dominate: ~200 bytes and one allocation per record, re-pickled once per
(configuration, workload) pair by the parallel harness.  :class:`PackedTrace`
instead stores every L2 miss in three flat fixed-width columns -- 24 bytes
per record, zero per-record objects:

* ``meta`` -- one ``uint64`` word per record packing the small fields::

      bit  0        kind        (1 = write)
      bit  1        shared      (the coherence ``S`` flag)
      bits 2..22    thread_id   (20 bits)
      bits 22..38   home_cluster (16 bits)
      bits 38..64   size_bytes  (26 bits)

* ``addresses`` -- one ``uint64`` physical address per record;
* ``gaps`` -- one ``float64`` compute gap (cycles) per record, exact.

Records are stored contiguously per thread in replay order, with a thread
table (``thread_ids`` + ``offsets``) delimiting each thread's segment, so the
replay engine iterates fields directly out of the columns.
:meth:`PackedTrace.records` decodes them into
:class:`~repro.trace.record.TraceRecord` objects for inspection.

The columns are plain buffers, which is what makes the zero-copy pipeline
work: :meth:`PackedTrace.copy_into` lays them out in one
``multiprocessing.shared_memory`` block and :meth:`PackedTrace.from_buffer`
reconstructs a trace as ``memoryview`` casts over that block -- workers index
the parent's pages directly instead of unpickling a private copy.

:class:`PackedTraceBuilder` appends records chunk-wise (one array append per
column), which is how the workload generators emit their traces.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple

from repro.trace.record import CACHE_LINE_BYTES, AccessKind, TraceRecord

# Bit layout of the packed meta word (uint64).
KIND_BIT = 1 << 0
SHARED_BIT = 1 << 1
THREAD_SHIFT = 2
THREAD_MASK = (1 << 20) - 1
HOME_SHIFT = 22
HOME_MASK = (1 << 16) - 1
SIZE_SHIFT = 38
SIZE_MASK = (1 << 26) - 1

#: Bytes per record across the three columns (meta + address + gap).
RECORD_BYTES = 24

_WRITE = AccessKind.WRITE


def pack_meta(
    thread_id: int,
    home_cluster: int,
    is_write: bool,
    shared: bool,
    size_bytes: int,
) -> int:
    """Pack the small per-record fields into one ``uint64`` word."""
    if not 0 <= thread_id <= THREAD_MASK:
        raise ValueError(f"thread id {thread_id} exceeds the 20-bit packed field")
    if not 0 <= home_cluster <= HOME_MASK:
        raise ValueError(
            f"home cluster {home_cluster} exceeds the 16-bit packed field"
        )
    if not 0 < size_bytes <= SIZE_MASK:
        raise ValueError(
            f"size {size_bytes} outside the 26-bit packed field (1..{SIZE_MASK})"
        )
    return (
        (KIND_BIT if is_write else 0)
        | (SHARED_BIT if shared else 0)
        | (thread_id << THREAD_SHIFT)
        | (home_cluster << HOME_SHIFT)
        | (size_bytes << SIZE_SHIFT)
    )


class PackedTraceHeader(NamedTuple):
    """Picklable shape metadata of a packed trace (the columns travel
    separately, e.g. through a shared-memory block).

    ``arrival_process``/``offered_rps`` carry a workload's open-loop
    arrival metadata (see :mod:`repro.trace.arrival`) through worker
    shipping; ``"closed"`` -- the default, and the value for every trace
    generated without an :class:`~repro.trace.arrival.ArrivalSpec` -- keeps
    the legacy gap-driven replay semantics.
    """

    name: str
    description: str
    num_clusters: int
    threads_per_cluster: int
    num_threads: int
    num_records: int
    arrival_process: str = "closed"
    offered_rps: float = 0.0


def _column_bytes(column) -> bytes:
    """Raw bytes of a column regardless of backing (array or memoryview)."""
    return column.tobytes()


class PackedTrace:
    """A complete workload trace in packed columnar form.

    The column attributes (``thread_ids``, ``offsets``, ``meta``,
    ``addresses``, ``gaps``) are either :class:`array.array` instances (owned
    storage) or ``memoryview`` casts (zero-copy views over a shared buffer);
    both index to plain ints/floats, which is all the replay engine needs.
    """

    __slots__ = (
        "name",
        "description",
        "num_clusters",
        "threads_per_cluster",
        "thread_ids",
        "offsets",
        "meta",
        "addresses",
        "gaps",
        "arrival_process",
        "offered_rps",
    )

    def __init__(
        self,
        name: str,
        num_clusters: int,
        threads_per_cluster: int,
        thread_ids,
        offsets,
        meta,
        addresses,
        gaps,
        description: str = "",
        arrival_process: str = "closed",
        offered_rps: float = 0.0,
    ) -> None:
        if len(offsets) != len(thread_ids) + 1:
            raise ValueError(
                f"offset table has {len(offsets)} entries for "
                f"{len(thread_ids)} threads (expected threads + 1)"
            )
        if len(meta) != len(addresses) or len(meta) != len(gaps):
            raise ValueError("packed columns disagree on record count")
        if len(offsets) and offsets[-1] != len(meta):
            raise ValueError(
                f"offset table ends at {offsets[-1]} but {len(meta)} records "
                "are stored"
            )
        self.name = name
        self.description = description
        self.num_clusters = num_clusters
        self.threads_per_cluster = threads_per_cluster
        self.thread_ids = thread_ids
        self.offsets = offsets
        self.meta = meta
        self.addresses = addresses
        self.gaps = gaps
        self.arrival_process = arrival_process
        self.offered_rps = offered_rps

    # ----------------------------------------------------------- inspection
    @property
    def total_requests(self) -> int:
        return len(self.meta)

    @property
    def total_threads(self) -> int:
        return self.num_clusters * self.threads_per_cluster

    def thread_segments(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(thread_id, cluster_id, start, stop)`` per stored thread,
        in replay order."""
        offsets = self.offsets
        tpc = self.threads_per_cluster
        for position, thread_id in enumerate(self.thread_ids):
            yield thread_id, thread_id // tpc, offsets[position], offsets[position + 1]

    def records(self) -> Iterator[TraceRecord]:
        """Decode every record, in stored (replay) order."""
        meta = self.meta
        addresses = self.addresses
        gaps = self.gaps
        for _thread_id, cluster, start, stop in self.thread_segments():
            for index in range(start, stop):
                word = meta[index]
                yield TraceRecord(
                    thread_id=(word >> THREAD_SHIFT) & THREAD_MASK,
                    cluster_id=cluster,
                    home_cluster=(word >> HOME_SHIFT) & HOME_MASK,
                    kind=_WRITE if word & KIND_BIT else AccessKind.READ,
                    address=addresses[index],
                    gap_cycles=gaps[index],
                    size_bytes=word >> SIZE_SHIFT,
                    shared=bool(word & SHARED_BIT),
                )

    def shared_fraction(self) -> float:
        total = self.total_requests
        if total == 0:
            return 0.0
        shared = sum(1 for word in self.meta if word & SHARED_BIT)
        return shared / total

    def destination_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for word in self.meta:
            home = (word >> HOME_SHIFT) & HOME_MASK
            histogram[home] = histogram.get(home, 0) + 1
        return histogram

    # ------------------------------------------------------ buffer shipping
    def header(self) -> PackedTraceHeader:
        return PackedTraceHeader(
            name=self.name,
            description=self.description,
            num_clusters=self.num_clusters,
            threads_per_cluster=self.threads_per_cluster,
            num_threads=len(self.thread_ids),
            num_records=len(self.meta),
            arrival_process=self.arrival_process,
            offered_rps=self.offered_rps,
        )

    def nbytes(self) -> int:
        """Bytes needed by :meth:`copy_into` (all five columns, 8 B items)."""
        threads = len(self.thread_ids)
        return 8 * (threads + (threads + 1) + 3 * len(self.meta))

    def _columns(self) -> Sequence:
        return (self.thread_ids, self.offsets, self.meta, self.addresses, self.gaps)

    def copy_into(self, buffer) -> int:
        """Lay the columns out back to back in ``buffer``; returns bytes used."""
        view = memoryview(buffer)
        offset = 0
        for column in self._columns():
            data = _column_bytes(column)
            view[offset:offset + len(data)] = data
            offset += len(data)
        return offset

    @classmethod
    def from_buffer(cls, header: PackedTraceHeader, buffer) -> "PackedTrace":
        """Reconstruct a trace as zero-copy views over ``buffer`` (the
        :meth:`copy_into` layout).  The buffer must outlive the trace."""
        threads = header.num_threads
        records = header.num_records
        view = memoryview(buffer)
        cursor = 0

        def take(code: str, count: int):
            nonlocal cursor
            size = 8 * count
            column = view[cursor:cursor + size].cast(code)
            cursor += size
            return column

        return cls(
            name=header.name,
            num_clusters=header.num_clusters,
            threads_per_cluster=header.threads_per_cluster,
            thread_ids=take("q", threads),
            offsets=take("q", threads + 1),
            meta=take("Q", records),
            addresses=take("Q", records),
            gaps=take("d", records),
            description=header.description,
            arrival_process=header.arrival_process,
            offered_rps=header.offered_rps,
        )

    # -------------------------------------------------------------- dunder
    def __len__(self) -> int:
        return len(self.meta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        if self.header() != other.header():
            return False
        return all(
            _column_bytes(mine) == _column_bytes(theirs)
            for mine, theirs in zip(self._columns(), other._columns())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedTrace({self.name!r}, records={len(self.meta)}, "
            f"threads={len(self.thread_ids)})"
        )


class PackedTraceBuilder:
    """Chunk-wise accumulator of packed records.

    ``append`` costs three array appends and no object allocation, so trace
    generators stream records straight into the packed columns.  Records of
    one thread must be appended contiguously (the generators are
    thread-major, so this falls out naturally).
    """

    __slots__ = (
        "name",
        "description",
        "num_clusters",
        "threads_per_cluster",
        "arrival_process",
        "offered_rps",
        "_thread_ids",
        "_offsets",
        "_meta",
        "_addresses",
        "_gaps",
        "_current_thread",
    )

    def __init__(
        self,
        name: str,
        num_clusters: int,
        threads_per_cluster: int,
        description: str = "",
        arrival_process: str = "closed",
        offered_rps: float = 0.0,
    ) -> None:
        self.name = name
        self.description = description
        self.arrival_process = arrival_process
        self.offered_rps = offered_rps
        self.num_clusters = num_clusters
        self.threads_per_cluster = threads_per_cluster
        self._thread_ids = array("q")
        self._offsets = array("q", [0])
        self._meta = array("Q")
        self._addresses = array("Q")
        self._gaps = array("d")
        self._current_thread = -1

    def append(
        self,
        thread_id: int,
        home_cluster: int,
        is_write: bool,
        shared: bool,
        address: int,
        gap_cycles: float,
        size_bytes: int = CACHE_LINE_BYTES,
    ) -> None:
        """Append one record to the current (or a new) thread segment."""
        if thread_id != self._current_thread:
            if thread_id in self._thread_ids:
                raise ValueError(
                    f"thread {thread_id} appended non-contiguously"
                )
            cluster = thread_id // self.threads_per_cluster
            if cluster >= self.num_clusters:
                raise ValueError(
                    f"thread {thread_id} maps to cluster {cluster}, beyond "
                    f"{self.num_clusters} clusters"
                )
            self._thread_ids.append(thread_id)
            self._offsets.append(self._offsets[-1])
            self._current_thread = thread_id
        if gap_cycles < 0:
            raise ValueError(f"gap cycles must be non-negative, got {gap_cycles}")
        if not 0 <= address < 1 << 64:
            raise ValueError(f"address {address:#x} does not fit in 64 bits")
        self._meta.append(
            pack_meta(thread_id, home_cluster, is_write, shared, size_bytes)
        )
        self._addresses.append(address)
        self._gaps.append(gap_cycles)
        self._offsets[-1] += 1

    def build(self) -> PackedTrace:
        return PackedTrace(
            name=self.name,
            num_clusters=self.num_clusters,
            threads_per_cluster=self.threads_per_cluster,
            thread_ids=self._thread_ids,
            offsets=self._offsets,
            meta=self._meta,
            addresses=self._addresses,
            gaps=self._gaps,
            description=self.description,
            arrival_process=self.arrival_process,
            offered_rps=self.offered_rps,
        )

