"""The L2-miss trace record.

A trace is a collection of per-thread sequences of L2 misses, stored in
packed columns (:class:`~repro.trace.packed.PackedTrace`).
:class:`TraceRecord` is one miss as an object: the record the functional
cache hierarchy (:mod:`repro.cache.hierarchy`) emits, and the decode type
behind :meth:`PackedTrace.records`.  Each record describes one miss the
thread's cluster must satisfy from main memory (or a remote cluster's
memory controller):

* ``gap_cycles`` -- core clock cycles of computation between the *issue* of
  the previous miss by this thread and the issue of this one.  The replay
  engine combines the gap with a bounded number of outstanding misses per
  thread to recreate the thread's latency tolerance.
* ``home_cluster`` -- the cluster whose memory controller owns the line.
* ``kind`` -- read (demand load / instruction fetch) or write (store miss /
  writeback), which determines the sizes of the request and response messages.
* ``address`` -- a synthetic physical address, used by the cache/coherence
  substrate and kept so traces remain usable by finer-grained models.
* ``shared`` -- whether the line is shared between clusters.  Shared misses
  consult the home cluster's MOESI directory during coherence-enabled
  replays (:mod:`repro.coherence`); private misses go straight to memory.

The replay engine does not need absolute timestamps: they emerge from the
gaps, the window and the simulated latencies, exactly as in the paper's
two-phase methodology.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Size of a cache line transferred per miss (Table 1).
CACHE_LINE_BYTES = 64


class AccessKind(enum.Enum):
    """Type of memory access behind an L2 miss."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def from_code(cls, code: str) -> "AccessKind":
        for kind in cls:
            if kind.value == code:
                return kind
        raise ValueError(f"unknown access kind code {code!r}")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One L2 miss issued by one hardware thread."""

    thread_id: int
    cluster_id: int
    home_cluster: int
    kind: AccessKind
    address: int
    gap_cycles: float
    size_bytes: int = CACHE_LINE_BYTES
    shared: bool = False

    def __post_init__(self) -> None:
        if self.thread_id < 0:
            raise ValueError(f"thread id must be non-negative, got {self.thread_id}")
        if self.cluster_id < 0:
            raise ValueError(
                f"cluster id must be non-negative, got {self.cluster_id}"
            )
        if self.home_cluster < 0:
            raise ValueError(
                f"home cluster must be non-negative, got {self.home_cluster}"
            )
        if self.gap_cycles < 0:
            raise ValueError(
                f"gap cycles must be non-negative, got {self.gap_cycles}"
            )
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE

