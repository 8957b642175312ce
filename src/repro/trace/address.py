"""Address-level workload generators.

The statistical SPLASH-2 models in :mod:`repro.trace.splash2` synthesize the
L2-*miss* stream directly, which is what the paper's network study consumes.
This module provides the complementary path: generate raw per-thread
*address* streams (strided array sweeps, random pointer chasing, hot shared
structures), run them through the functional cache hierarchy of
:mod:`repro.cache.hierarchy`, and obtain a miss trace whose rate and locality
come from actual cache behaviour rather than from calibrated parameters.  It
is slower, so it is used by examples and tests rather than by the main
harness, and it is the integration point for anyone who wants to drive the
replay engine from a real address trace.
"""

from __future__ import annotations

import enum
import random
from array import array
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.cores.cluster import ClusterParameters
from repro.trace.packed import PackedTrace, PackedTraceBuilder


class AccessPattern(enum.Enum):
    """Per-thread address-stream shapes."""

    #: Sequential sweep over a private array (streaming, low reuse).
    STREAMING = "streaming"
    #: Repeated sweep over a small private working set (high reuse).
    RESIDENT = "resident"
    #: Uniform random accesses over a large shared region (pointer chasing).
    RANDOM_SHARED = "random_shared"


@dataclass
class AddressWorkload:
    """A synthetic address-level workload.

    Parameters
    ----------
    name:
        Label used for the resulting trace.
    pattern:
        Per-thread address-stream shape.
    accesses_per_thread:
        Raw memory accesses issued by each hardware thread.
    working_set_bytes:
        Size of each thread's private region (STREAMING / RESIDENT) or of the
        shared region (RANDOM_SHARED).
    write_fraction:
        Fraction of accesses that are stores.
    mean_gap_cycles:
        Compute cycles between consecutive accesses of a thread; carried onto
        the miss records (misses inherit the gaps accumulated since the
        previous miss).
    """

    name: str
    pattern: AccessPattern
    accesses_per_thread: int = 2000
    working_set_bytes: int = 1 << 20
    write_fraction: float = 0.3
    mean_gap_cycles: float = 4.0
    num_clusters: int = 64
    threads_per_cluster: int = 16
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.accesses_per_thread < 1:
            raise ValueError("each thread needs at least one access")
        if self.working_set_bytes < self.line_bytes:
            raise ValueError("working set must hold at least one line")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write fraction must be in [0, 1]")

    # -- address generation -----------------------------------------------------
    def _thread_base(self, thread_id: int) -> int:
        """Base address of a thread's private region (1 GB-aligned regions)."""
        return (thread_id + 1) << 30

    def _addresses(self, thread_id: int, rng: random.Random) -> Iterator[int]:
        base = self._thread_base(thread_id)
        lines_in_set = max(self.working_set_bytes // self.line_bytes, 1)
        if self.pattern is AccessPattern.STREAMING:
            for i in range(self.accesses_per_thread):
                yield base + (i % lines_in_set) * self.line_bytes
        elif self.pattern is AccessPattern.RESIDENT:
            resident_lines = max(lines_in_set // 16, 1)
            for i in range(self.accesses_per_thread):
                yield base + (i % resident_lines) * self.line_bytes
        elif self.pattern is AccessPattern.RANDOM_SHARED:
            shared_base = 1 << 40
            for _ in range(self.accesses_per_thread):
                line = rng.randrange(lines_in_set)
                yield shared_base + line * self.line_bytes
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown pattern {self.pattern}")

    # -- trace generation ----------------------------------------------------------
    def generate(
        self, seed: int = 1, clusters: Optional[int] = None
    ) -> Tuple[PackedTrace, List[CacheHierarchy]]:
        """Run the address streams through per-cluster cache hierarchies.

        Returns the L2-miss :class:`PackedTrace` (ready for the replay
        engine) and the hierarchies themselves (so callers can inspect miss
        rates).  Only the first ``clusters`` clusters are populated when
        given, which keeps tests and examples fast.
        """
        rng = random.Random(seed)
        populated = clusters if clusters is not None else self.num_clusters
        if not 1 <= populated <= self.num_clusters:
            raise ValueError(
                f"clusters must be in [1, {self.num_clusters}], got {populated}"
            )

        builder = PackedTraceBuilder(
            name=self.name,
            num_clusters=self.num_clusters,
            threads_per_cluster=self.threads_per_cluster,
            description=f"address-level {self.pattern.value} workload",
        )
        hierarchies: List[CacheHierarchy] = []
        cores_per_cluster = ClusterParameters().cores
        threads_per_core = self.threads_per_cluster // cores_per_cluster

        for cluster in range(populated):
            hierarchy = CacheHierarchy(
                cluster_id=cluster, num_clusters=self.num_clusters
            )
            hierarchies.append(hierarchy)
            for local_thread in range(self.threads_per_cluster):
                thread_id = cluster * self.threads_per_cluster + local_thread
                core = local_thread // max(threads_per_core, 1)
                core = min(core, cores_per_cluster - 1)
                pending_gap = 0.0
                for address in self._addresses(thread_id, rng):
                    pending_gap += rng.expovariate(1.0 / self.mean_gap_cycles) \
                        if self.mean_gap_cycles > 0 else 0.0
                    is_write = rng.random() < self.write_fraction
                    result = hierarchy.access(
                        core=core,
                        thread_id=thread_id,
                        address=address,
                        is_write=is_write,
                        gap_cycles=pending_gap,
                    )
                    if not result.l2_hit:
                        pending_gap = 0.0
            # Threads run one after another, so each thread's misses are
            # contiguous, as the builder requires.
            for record in hierarchy.l2_misses:
                builder.append(
                    record.thread_id,
                    record.home_cluster,
                    record.is_write,
                    record.shared,
                    record.address,
                    record.gap_cycles,
                    record.size_bytes,
                )
            hierarchy.l2_misses.clear()
        return builder.build(), hierarchies


@dataclass
class AddressTraceWorkload:
    """An :class:`AddressWorkload` adapted to the harness workload protocol.

    The harness protocol (``name``/``window``/``generate_packed(seed,
    num_requests)``) is what the registries, matrices and the sweep engine
    speak; the native :meth:`AddressWorkload.generate` signature predates
    it.  ``num_requests`` bounds the *raw accesses* driven through the
    functional cache hierarchy (spread evenly over the threads); the
    emitted trace is the resulting L2-miss stream, truncated to the bound
    -- so the record count reflects actual cache behaviour, like a
    trace-file workload's count reflects its file.
    """

    workload: AddressWorkload
    window: int = 4

    #: ``window`` only shapes the replay, so trace caches ignore it.
    replay_only_params = ("window",)
    #: Scaled by the tier's synthetic request budget, like the pattern
    #: workloads (there is no SPLASH-2 profile to scale from).
    is_synthetic = True

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def name(self) -> str:
        return self.workload.name

    def generate_packed(
        self, seed: int = 1, num_requests: Optional[int] = None
    ) -> PackedTrace:
        base = self.workload
        if num_requests is not None:
            total_threads = base.num_clusters * base.threads_per_cluster
            per_thread = max(1, -(-int(num_requests) // total_threads))
            if per_thread != base.accesses_per_thread:
                base = replace(base, accesses_per_thread=per_thread)
        trace, _hierarchies = base.generate(seed=seed)
        if num_requests is None or trace.total_requests <= num_requests:
            return trace
        # Keep the first ``num_requests`` records in stored order.
        keep = int(num_requests)
        thread_ids = array("q")
        offsets = array("q", [0])
        for thread_id, _cluster, start, stop in trace.thread_segments():
            if start >= keep:
                break
            thread_ids.append(thread_id)
            offsets.append(min(stop, keep))
        return PackedTrace(
            name=trace.name,
            num_clusters=trace.num_clusters,
            threads_per_cluster=trace.threads_per_cluster,
            thread_ids=thread_ids,
            offsets=offsets,
            meta=trace.meta[:keep],
            addresses=trace.addresses[:keep],
            gaps=trace.gaps[:keep],
            description=trace.description,
        )


_ADDRESS_FACTORIES = {}


def registered_address_workload(kind: str, window: int = 4, **overrides):
    """Factory behind the ``addr-*`` workload-registry entries."""
    try:
        factory = _ADDRESS_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown address workload kind {kind!r}; "
            f"known: {sorted(_ADDRESS_FACTORIES)}"
        ) from None
    return AddressTraceWorkload(workload=factory(**overrides), window=window)


def streaming_workload(**overrides) -> AddressWorkload:
    """A streaming array sweep: every access is a compulsory-ish miss."""
    params = dict(
        name="AddressStreaming",
        pattern=AccessPattern.STREAMING,
        working_set_bytes=8 << 20,
        mean_gap_cycles=4.0,
    )
    params.update(overrides)
    return AddressWorkload(**params)


def resident_workload(**overrides) -> AddressWorkload:
    """A cache-resident working set: almost everything hits in the L1/L2."""
    params = dict(
        name="AddressResident",
        pattern=AccessPattern.RESIDENT,
        working_set_bytes=256 << 10,
        mean_gap_cycles=4.0,
    )
    params.update(overrides)
    return AddressWorkload(**params)


def random_shared_workload(**overrides) -> AddressWorkload:
    """Random accesses over a large shared region: high, uniform miss traffic."""
    params = dict(
        name="AddressRandomShared",
        pattern=AccessPattern.RANDOM_SHARED,
        working_set_bytes=64 << 20,
        mean_gap_cycles=8.0,
    )
    params.update(overrides)
    return AddressWorkload(**params)


_ADDRESS_FACTORIES.update(
    {
        "streaming": streaming_workload,
        "resident": resident_workload,
        "random-shared": random_shared_workload,
    }
)
