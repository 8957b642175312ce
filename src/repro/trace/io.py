"""Trace serialization: diffable text and packed binary formats.

**Text (corona-trace v1)** stores one header line and one line per record:

.. code-block:: text

    # corona-trace v1 name=<name> clusters=<n> threads_per_cluster=<m>
    <thread_id> <home_cluster> <R|W> <address-hex> <gap_cycles> <size_bytes> [S]

The format is deliberately simple: it is diffable, compresses well, and can be
produced by an external full-system simulator if real SPLASH-2 traces become
available, in which case they drop straight into the replay engine.  A
trailing ``S`` marks the record as a shared line for coherence-enabled
replays; records without it (including every pre-existing trace file) are
private.  A thread's records may interleave with other threads' (as in a
time-ordered external trace); the reader groups them per thread in order of
first appearance.  Note that the text format rounds gaps to 4 decimals.

**Binary (corona-trace bin2)** stores the :class:`~repro.trace.packed.
PackedTrace` columns verbatim (little-endian, 24 bytes per record): a magic
line, a fixed-size shape header, the name/description strings, then the five
columns back to back.  It round-trips every field exactly -- including the
shared-``S`` flag and full float64 gaps -- and loads without per-record
parsing, which is what makes paper-scale trace files practical.
:func:`read_trace` sniffs the magic bytes and accepts either format.
"""

from __future__ import annotations

import re
import struct
import sys
from array import array
from pathlib import Path
from typing import Union

from repro.trace.packed import (
    HOME_MASK,
    HOME_SHIFT,
    KIND_BIT,
    SHARED_BIT,
    SIZE_SHIFT,
    PackedTrace,
    PackedTraceBuilder,
)
from repro.trace.record import AccessKind

_HEADER_PREFIX = "# corona-trace v1"

_BINARY_MAGIC = b"# corona-trace bin2\n"
#: Shape header that follows the magic: clusters, threads_per_cluster,
#: thread count, record count, name length, description length.
_BINARY_HEADER = struct.Struct("<IIQQII")


def write_trace(trace: PackedTrace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` in the corona-trace v1 text format
    (threads in ascending id order)."""
    meta = trace.meta
    addresses = trace.addresses
    gaps = trace.gaps
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(
            f"{_HEADER_PREFIX} name={trace.name!r} "
            f"clusters={trace.num_clusters} "
            f"threads_per_cluster={trace.threads_per_cluster}\n"
        )
        for thread_id, _cluster, start, stop in sorted(trace.thread_segments()):
            for index in range(start, stop):
                word = meta[index]
                kind = "W" if word & KIND_BIT else "R"
                shared = " S" if word & SHARED_BIT else ""
                handle.write(
                    f"{thread_id} {(word >> HOME_SHIFT) & HOME_MASK} {kind} "
                    f"{addresses[index]:x} {gaps[index]:.4f} "
                    f"{word >> SIZE_SHIFT}{shared}\n"
                )


#: ``key=value`` header tokens; quoted values may contain spaces (the name
#: is written with ``!r``, so e.g. ``name='Uniform s=0.3'`` is one token).
_HEADER_TOKEN = re.compile(r"(\w+)=('[^']*'|\"[^\"]*\"|\S+)")


def _parse_header(line: str, path: Path) -> dict:
    """``name``, ``num_clusters`` and ``threads_per_cluster`` of a text
    header line (errors name ``path:1``).  :func:`sniff_trace_format` has
    already checked the prefix."""
    fields = {}
    for key, value in _HEADER_TOKEN.findall(line[len(_HEADER_PREFIX):]):
        fields[key] = value
    required = {"name", "clusters", "threads_per_cluster"}
    missing = required - set(fields)
    if missing:
        raise ValueError(f"{path}:1: trace header missing fields: {sorted(missing)}")
    try:
        num_clusters = int(fields["clusters"])
        threads_per_cluster = int(fields["threads_per_cluster"])
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None
    if num_clusters < 1 or threads_per_cluster < 1:
        raise ValueError(f"{path}:1: clusters and threads_per_cluster must be >= 1")
    return {
        "name": fields["name"].strip("'\""),
        "num_clusters": num_clusters,
        "threads_per_cluster": threads_per_cluster,
    }


def _parse_record(parts, num_clusters: int):
    """``(thread_id, PackedTraceBuilder.append arguments)`` of one text
    record line."""
    if len(parts) not in (6, 7):
        raise ValueError(f"expected 6 or 7 fields, got {len(parts)}")
    if len(parts) == 7 and parts[6] != "S":
        raise ValueError(f"unknown record flag {parts[6]!r}")
    home_cluster = int(parts[1])
    if not 0 <= home_cluster < num_clusters:
        raise ValueError(
            f"home cluster {home_cluster} out of range for {num_clusters} clusters"
        )
    is_write = AccessKind.from_code(parts[2]) is AccessKind.WRITE
    address = int(parts[3], 16)
    return int(parts[0]), (
        home_cluster, is_write, len(parts) == 7, address, float(parts[4]), int(parts[5])
    )


def _read_text(path: Path) -> PackedTrace:
    """Parse a corona-trace v1 text file straight into packed columns.

    A thread's records may be interleaved with other threads' (e.g. an
    externally produced, time-ordered trace); they are grouped per thread in
    order of first appearance, each thread keeping its own record order.
    """
    threads = {}
    with path.open("r", encoding="utf-8") as handle:
        header = _parse_header(handle.readline().rstrip("\n"), path)
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                thread_id, row = _parse_record(line.split(), header["num_clusters"])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from None
            threads.setdefault(thread_id, []).append((line_number, row))
    builder = PackedTraceBuilder(
        header["name"], header["num_clusters"], header["threads_per_cluster"]
    )
    for thread_id, rows in threads.items():
        for line_number, row in rows:
            try:
                builder.append(thread_id, *row)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from None
    return builder.build()


def read_trace(path: Union[str, Path]) -> PackedTrace:
    """Read a trace file in either format (sniffed by its magic bytes).

    The binary format loads without per-record parsing; text parse errors
    name the offending ``path:line``.
    """
    path = Path(path)
    if sniff_trace_format(path) == "binary":
        return read_trace_binary(path)
    return _read_text(path)


# ---------------------------------------------------------------------------
# Binary format (corona-trace bin2)
# ---------------------------------------------------------------------------

def _native_to_little(column: array) -> array:
    """A little-endian copy of ``column`` (no-op on little-endian hosts)."""
    if sys.byteorder == "little":
        return column
    swapped = array(column.typecode, column)  # pragma: no cover - BE hosts
    swapped.byteswap()  # pragma: no cover - BE hosts
    return swapped  # pragma: no cover - BE hosts


def write_trace_binary(trace: PackedTrace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` in the packed binary format.

    Every field round-trips exactly, including the shared-``S`` flag (bit 1
    of each packed meta word) and full-precision gaps.
    """
    name = trace.name.encode("utf-8")
    description = trace.description.encode("utf-8")
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(
            _BINARY_HEADER.pack(
                trace.num_clusters,
                trace.threads_per_cluster,
                len(trace.thread_ids),
                len(trace.meta),
                len(name),
                len(description),
            )
        )
        handle.write(name)
        handle.write(description)
        for code, column in (
            ("q", trace.thread_ids),
            ("q", trace.offsets),
            ("Q", trace.meta),
            ("Q", trace.addresses),
            ("d", trace.gaps),
        ):
            if not isinstance(column, array):
                column = array(code, column)
            handle.write(_native_to_little(column).tobytes())


def sniff_trace_format(path: Union[str, Path]) -> str:
    """``"binary"`` or ``"text"`` by magic bytes (errors on neither)."""
    path = Path(path)
    with path.open("rb") as probe:
        head = probe.read(max(len(_BINARY_MAGIC), len(_HEADER_PREFIX)))
    if head.startswith(_BINARY_MAGIC):
        return "binary"
    if head.startswith(_HEADER_PREFIX.encode("ascii")):
        return "text"
    raise ValueError(
        f"{path}: neither a corona-trace v1 text file nor a bin2 binary "
        f"(starts with {head[:20]!r})"
    )


def read_trace_metadata(path: Union[str, Path]) -> dict:
    """A trace file's shape without loading its columns.

    Reads only the header: ``name``, ``num_clusters``,
    ``threads_per_cluster`` and -- for the binary format, whose fixed-size
    header stores it -- ``num_records`` (``None`` for text files, whose
    record count requires a full scan).  The cheap peek behind
    :class:`~repro.trace.file.TraceFileWorkload`'s lazy loading.
    """
    path = Path(path)
    if sniff_trace_format(path) == "binary":
        with path.open("rb") as handle:
            handle.read(len(_BINARY_MAGIC))
            header = handle.read(_BINARY_HEADER.size)
            if len(header) != _BINARY_HEADER.size:
                raise ValueError(f"{path}: truncated binary trace header")
            (
                num_clusters,
                threads_per_cluster,
                _num_threads,
                num_records,
                name_len,
                _description_len,
            ) = _BINARY_HEADER.unpack(header)
            name = handle.read(name_len).decode("utf-8")
        return {
            "name": name,
            "num_clusters": num_clusters,
            "threads_per_cluster": threads_per_cluster,
            "num_records": num_records,
        }
    with path.open("r", encoding="utf-8") as handle:
        header = _parse_header(handle.readline().rstrip("\n"), path)
    return {**header, "num_records": None}


def trace_summary(path: Union[str, Path]) -> dict:
    """Inspection record for ``corona-repro trace info``: format, shape and
    first-order statistics of a trace file."""
    path = Path(path)
    fmt = sniff_trace_format(path)
    packed = read_trace(path)
    total = packed.total_requests
    writes = sum(1 for word in packed.meta if word & KIND_BIT)
    return {
        "path": str(path),
        "format": fmt,
        "name": packed.name,
        "description": packed.description,
        "num_clusters": packed.num_clusters,
        "threads_per_cluster": packed.threads_per_cluster,
        "threads_with_records": len(packed.thread_ids),
        "records": total,
        "reads": total - writes,
        "writes": writes,
        "shared_fraction": packed.shared_fraction(),
        "mean_gap_cycles": (
            sum(packed.gaps) / total if total else 0.0
        ),
        "distinct_homes": len(packed.destination_histogram()),
        "file_bytes": path.stat().st_size,
    }


def read_trace_binary(path: Union[str, Path]) -> PackedTrace:
    """Read a packed binary trace file back into a :class:`PackedTrace`."""
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise ValueError(
                f"not a corona-trace bin2 file (starts with {magic[:20]!r})"
            )
        header = handle.read(_BINARY_HEADER.size)
        if len(header) != _BINARY_HEADER.size:
            raise ValueError(f"{path}: truncated binary trace header")
        (
            num_clusters,
            threads_per_cluster,
            num_threads,
            num_records,
            name_len,
            description_len,
        ) = _BINARY_HEADER.unpack(header)
        name = handle.read(name_len).decode("utf-8")
        description = handle.read(description_len).decode("utf-8")

        def read_column(code: str, count: int) -> array:
            column = array(code)
            data = handle.read(8 * count)
            if len(data) != 8 * count:
                raise ValueError(f"{path}: truncated {code!r} column")
            column.frombytes(data)
            return _native_to_little(column)

        return PackedTrace(
            name=name,
            num_clusters=num_clusters,
            threads_per_cluster=threads_per_cluster,
            thread_ids=read_column("q", num_threads),
            offsets=read_column("q", num_threads + 1),
            meta=read_column("Q", num_records),
            addresses=read_column("Q", num_records),
            gaps=read_column("d", num_records),
            description=description,
        )
