"""A cluster's cache hierarchy: per-core L1s over a shared L2.

The hierarchy can be driven with raw (address, read/write) accesses and
produces the stream of L2 misses -- exactly the records the network replay
consumes -- so an external address trace (or a synthetic address-level
workload) can be converted into a packed miss trace
(:class:`~repro.trace.packed.PackedTrace`) without a full-system simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cache.cache import SetAssociativeCache
from repro.cache.mshr import MshrFile
from repro.trace.record import AccessKind, TraceRecord


@dataclass(frozen=True)
class HierarchyAccessResult:
    """Outcome of one core access against the cluster hierarchy."""

    l1_hit: bool
    l2_hit: bool
    l2_miss_generated: bool
    coalesced: bool
    writeback_generated: bool

    @property
    def goes_to_memory(self) -> bool:
        return self.l2_miss_generated


@dataclass
class CacheHierarchy:
    """Four private L1 data caches over one shared L2."""

    cluster_id: int
    num_cores: int = 4
    l1_capacity_bytes: int = 32 * 1024
    l1_associativity: int = 4
    l2_capacity_bytes: int = 4 * 1024 * 1024
    l2_associativity: int = 16
    line_bytes: int = 64
    l2_mshrs: int = 64
    num_clusters: int = 64
    l1_caches: List[SetAssociativeCache] = field(default_factory=list, repr=False)
    l2_cache: SetAssociativeCache = field(init=False, repr=False)
    mshrs: MshrFile = field(init=False, repr=False)
    l2_misses: List[TraceRecord] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("cluster needs at least one core")
        if not self.l1_caches:
            self.l1_caches = [
                SetAssociativeCache(
                    name=f"cluster{self.cluster_id}-l1d{i}",
                    capacity_bytes=self.l1_capacity_bytes,
                    associativity=self.l1_associativity,
                    line_bytes=self.line_bytes,
                )
                for i in range(self.num_cores)
            ]
        self.l2_cache = SetAssociativeCache(
            name=f"cluster{self.cluster_id}-l2",
            capacity_bytes=self.l2_capacity_bytes,
            associativity=self.l2_associativity,
            line_bytes=self.line_bytes,
        )
        self.mshrs = MshrFile(
            name=f"cluster{self.cluster_id}-mshrs",
            entries=self.l2_mshrs,
            line_bytes=self.line_bytes,
        )

    # -- address mapping ---------------------------------------------------------
    def home_cluster(self, address: int) -> int:
        """Line-interleaved home mapping across the 64 memory controllers."""
        return (address // self.line_bytes) % self.num_clusters

    # -- the access path -----------------------------------------------------------
    def access(
        self,
        core: int,
        thread_id: int,
        address: int,
        is_write: bool,
        gap_cycles: float = 0.0,
        now: float = 0.0,
    ) -> HierarchyAccessResult:
        """Run one core access through L1 and L2.

        L2 misses are appended to :attr:`l2_misses` as trace records ready for
        the network replay.
        """
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} outside cluster of {self.num_cores}")

        l1 = self.l1_caches[core]
        l1_hit, l1_victim = l1.access(address, is_write)
        writeback = False
        if l1_hit:
            return HierarchyAccessResult(
                l1_hit=True,
                l2_hit=True,
                l2_miss_generated=False,
                coalesced=False,
                writeback_generated=False,
            )

        # L1 victim writebacks land in the L2 (write-back hierarchy).
        if l1_victim is not None and l1_victim[1].dirty:
            self.l2_cache.access(l1_victim[0], is_write=True)

        l2_hit, l2_victim = self.l2_cache.access(address, is_write)
        if l2_hit:
            return HierarchyAccessResult(
                l1_hit=False,
                l2_hit=True,
                l2_miss_generated=False,
                coalesced=False,
                writeback_generated=False,
            )

        # L2 victim writebacks become memory writes.
        if l2_victim is not None and l2_victim[1].dirty:
            writeback = True
            self._record_miss(
                thread_id, l2_victim[0], is_write=True, gap_cycles=0.0
            )

        entry = self.mshrs.allocate(address, thread_id, is_write, now)
        coalesced = entry is not None and entry.coalesced_count > 1
        miss_generated = entry is not None and not coalesced
        if miss_generated:
            self._record_miss(thread_id, address, is_write, gap_cycles)
            self.mshrs.release(address)
        return HierarchyAccessResult(
            l1_hit=False,
            l2_hit=False,
            l2_miss_generated=miss_generated,
            coalesced=coalesced,
            writeback_generated=writeback,
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
                size_bytes=self.line_bytes,
            )
        )

    # -- reporting --------------------------------------------------------------------
    def l1_miss_rate(self) -> float:
        accesses = sum(c.stats.accesses for c in self.l1_caches)
        misses = sum(c.stats.misses for c in self.l1_caches)
        return misses / accesses if accesses else 0.0

    def l2_miss_rate(self) -> float:
        return self.l2_cache.stats.miss_rate

    def misses_to_memory(self) -> int:
        return len(self.l2_misses)
