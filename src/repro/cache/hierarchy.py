"""A cluster's cache hierarchy: per-core L1s over a shared L2.

The hierarchy can be driven with raw (address, read/write) accesses and
produces the stream of L2 misses -- exactly the records the network replay
consumes -- so an external address trace (or a synthetic address-level
workload) can be converted into a packed miss trace
(:class:`~repro.trace.packed.PackedTrace`) without a full-system simulator.

Its geometry is Table 1's, read from the cluster and core parameter blocks
that :class:`~repro.core.config.CoronaConfig` nests: four cores, a 32 KB
4-way L1 data cache each, a shared 4 MB 16-way L2 and 64-byte lines.  Every
L2 miss becomes one record; the hierarchy is functional, with no notion of
time, so no miss is outstanding when the next access arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cache.cache import SetAssociativeCache
from repro.cores.cluster import ClusterParameters
from repro.cores.core import CoreParameters
from repro.trace.record import AccessKind, TraceRecord

#: Table 1's cluster and core, the source of the hierarchy's geometry.
_CLUSTER = ClusterParameters()
_CORE = CoreParameters()


@dataclass(frozen=True)
class HierarchyAccessResult:
    """Outcome of one core access against the cluster hierarchy."""

    l1_hit: bool
    l2_hit: bool
    writeback_generated: bool


@dataclass
class CacheHierarchy:
    """Four private L1 data caches over one shared L2 (Table 1).

    ``num_clusters`` is the home interleave: a line's home is its line
    number modulo the cluster count.
    """

    cluster_id: int
    num_clusters: int = 64
    l1_caches: List[SetAssociativeCache] = field(init=False, repr=False)
    l2_cache: SetAssociativeCache = field(init=False, repr=False)
    l2_misses: List[TraceRecord] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.l1_caches = [
            SetAssociativeCache(
                name=f"cluster{self.cluster_id}-l1d{i}",
                capacity_bytes=_CORE.l1_dcache_bytes,
                associativity=_CORE.l1_dcache_assoc,
                line_bytes=_CORE.cache_line_bytes,
            )
            for i in range(_CLUSTER.cores)
        ]
        self.l2_cache = SetAssociativeCache(
            name=f"cluster{self.cluster_id}-l2",
            capacity_bytes=_CLUSTER.l2_cache_bytes,
            associativity=_CLUSTER.l2_associativity,
            line_bytes=_CLUSTER.l2_line_bytes,
        )
        self.l2_misses = []

    # -- address mapping ---------------------------------------------------------
    def home_cluster(self, address: int) -> int:
        """Line-interleaved home mapping across the memory controllers."""
        return (address // _CLUSTER.l2_line_bytes) % self.num_clusters

    # -- the access path -----------------------------------------------------------
    def access(
        self,
        core: int,
        thread_id: int,
        address: int,
        is_write: bool,
        gap_cycles: float = 0.0,
    ) -> HierarchyAccessResult:
        """Run one core access through L1 and L2.

        An L2 miss appends a trace record for the access to
        :attr:`l2_misses`, after the writeback of the dirty line it evicted,
        if any.
        """
        if not 0 <= core < _CLUSTER.cores:
            raise ValueError(f"core {core} outside cluster of {_CLUSTER.cores}")

        l1 = self.l1_caches[core]
        l1_hit, l1_victim = l1.access(address, is_write)
        if l1_hit:
            return HierarchyAccessResult(
                l1_hit=True, l2_hit=True, writeback_generated=False
            )

        # L1 victim writebacks land in the L2 (write-back hierarchy).
        if l1_victim is not None and l1_victim[1].dirty:
            self.l2_cache.access(l1_victim[0], is_write=True)

        l2_hit, l2_victim = self.l2_cache.access(address, is_write)
        if l2_hit:
            return HierarchyAccessResult(
                l1_hit=False, l2_hit=True, writeback_generated=False
            )

        # L2 victim writebacks become memory writes.
        writeback = l2_victim is not None and l2_victim[1].dirty
        if writeback:
            self._record_miss(
                thread_id, l2_victim[0], is_write=True, gap_cycles=0.0
            )
        self._record_miss(thread_id, address, is_write, gap_cycles)
        return HierarchyAccessResult(
            l1_hit=False, l2_hit=False, writeback_generated=writeback
        )

    def _record_miss(
        self, thread_id: int, address: int, is_write: bool, gap_cycles: float
    ) -> None:
        self.l2_misses.append(
            TraceRecord(
                thread_id=thread_id,
                cluster_id=self.cluster_id,
                home_cluster=self.home_cluster(address),
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
                address=address,
                gap_cycles=gap_cycles,
                size_bytes=_CLUSTER.l2_line_bytes,
            )
        )

    # -- reporting --------------------------------------------------------------------
    def l1_miss_rate(self) -> float:
        accesses = sum(c.stats.accesses for c in self.l1_caches)
        misses = sum(c.stats.misses for c in self.l1_caches)
        return misses / accesses if accesses else 0.0

    def l2_miss_rate(self) -> float:
        return self.l2_cache.stats.miss_rate
