"""Synthetic traffic patterns (Table 3 of the Corona paper).

The paper stresses the interconnects with four classic patterns, each issuing
1 M network requests across the 64 clusters (8x8 logical grid):

* **Uniform** -- each request targets a uniformly random cluster.
* **Hot Spot** -- every cluster targets a single cluster, so one memory
  controller and one crossbar channel (or the mesh links feeding it) become
  the bottleneck.
* **Tornado** -- cluster ``(i, j)`` targets
  ``((i + k/2 - 1) % k, (j + k/2 - 1) % k)`` where ``k`` is the network radix;
  an adversarial pattern for meshes/tori because all traffic travels nearly
  half way across the network.
* **Transpose** -- cluster ``(i, j)`` targets ``(j, i)``, the classic matrix
  transpose permutation that concentrates traffic on the mesh diagonal.

Two further classic patterns extend the paper's set:

* **Bit Reversal** -- cluster ``b_{n-1} ... b_1 b_0`` targets
  ``b_0 b_1 ... b_{n-1}`` (FFT-style communication); like Transpose it is a
  fixed permutation that loads specific mesh paths.
* **Neighbor** -- cluster ``i`` targets ``(i + 1) mod N``, a
  producer-consumer pipeline with minimal mesh distance; the gentlest
  pattern, useful as a low-contention control.

Each pattern is wrapped in a :class:`SyntheticWorkload` that produces a
:class:`~repro.trace.packed.PackedTrace` with per-thread gaps drawn from an
exponential distribution, so the offered load is tunable with one intensity
parameter.  A :class:`~repro.coherence.sharing.SharingProfile` additionally
tags a configurable fraction of misses as *shared* lines, which is what the
coherence-enabled replay (:mod:`repro.coherence`) consumes.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.coherence.sharing import (
    SharingProfile,
    default_sharing_profile,
    home_for_line,
    resolve_sharing,
    shared_line_address,
)
from repro.trace.arrival import ArrivalSpec, arrival_streams
from repro.trace.gaps import draw_gap
from repro.trace.packed import PackedTrace, PackedTraceBuilder

#: Default request count from Table 3 of the paper.
PAPER_SYNTHETIC_REQUESTS = 1_000_000


class SyntheticPattern(enum.Enum):
    """The paper's four destination permutations plus two classic extensions."""

    UNIFORM = "uniform"
    HOT_SPOT = "hot_spot"
    TORNADO = "tornado"
    TRANSPOSE = "transpose"
    BIT_REVERSAL = "bit_reversal"
    NEIGHBOR = "neighbor"


def _grid_radix(num_clusters: int) -> int:
    radix = int(round(math.sqrt(num_clusters)))
    if radix * radix != num_clusters:
        raise ValueError(
            f"synthetic patterns need a square cluster count, got {num_clusters}"
        )
    return radix


def _cluster_to_xy(cluster: int, radix: int) -> tuple[int, int]:
    return cluster % radix, cluster // radix


def _xy_to_cluster(x: int, y: int, radix: int) -> int:
    return y * radix + x


def tornado_destination(cluster: int, num_clusters: int) -> int:
    """Tornado permutation destination of ``cluster``."""
    radix = _grid_radix(num_clusters)
    x, y = _cluster_to_xy(cluster, radix)
    shift = radix // 2 - 1
    return _xy_to_cluster((x + shift) % radix, (y + shift) % radix, radix)


def transpose_destination(cluster: int, num_clusters: int) -> int:
    """Transpose permutation destination of ``cluster``."""
    radix = _grid_radix(num_clusters)
    x, y = _cluster_to_xy(cluster, radix)
    return _xy_to_cluster(y, x, radix)


def bit_reversal_destination(cluster: int, num_clusters: int) -> int:
    """Bit-reversal permutation destination of ``cluster``.

    Reverses the ``log2(num_clusters)`` address bits of the cluster id; the
    cluster count must be a power of two.
    """
    bits = num_clusters.bit_length() - 1
    if 1 << bits != num_clusters:
        raise ValueError(
            f"bit reversal needs a power-of-two cluster count, got {num_clusters}"
        )
    reversed_id = 0
    for bit in range(bits):
        reversed_id = (reversed_id << 1) | ((cluster >> bit) & 1)
    return reversed_id


def neighbor_destination(cluster: int, num_clusters: int) -> int:
    """Neighbor (producer-consumer) destination: the next cluster id."""
    return (cluster + 1) % num_clusters


@dataclass
class SyntheticWorkload:
    """A synthetic traffic workload.

    Parameters
    ----------
    name:
        Workload name as it appears in the paper's figures.
    pattern:
        Destination permutation.
    num_requests:
        Total L2 misses across all threads (paper: 1 M).
    num_clusters, threads_per_cluster:
        System shape; 64 clusters x 16 threads = 1024 threads by default.
    mean_gap_cycles:
        Mean compute gap between consecutive misses of one thread, in 5 GHz
        core cycles.  Small gaps mean high offered load.
    write_fraction:
        Fraction of misses that are writes.
    window:
        Maximum outstanding misses per thread during replay (memory-level
        parallelism the in-order multithreaded core can sustain).
    hot_cluster:
        Destination cluster for the Hot Spot pattern.
    sharing:
        Optional :class:`~repro.coherence.sharing.SharingProfile`; when set
        (with a non-zero fraction), that fraction of misses targets a global
        pool of shared lines tagged for the coherence-enabled replay.  With
        no profile (or fraction 0) generation is bit-identical to the
        sharing-free path.
    arrival:
        Optional :class:`~repro.trace.arrival.ArrivalSpec` (or its dict
        form).  When enabled, gaps come from the open-loop arrival process
        instead of the closed-loop gamma think model; ``None`` or a
        ``"closed"`` process keeps generation bit-identical to before.
    """

    name: str
    pattern: SyntheticPattern
    num_requests: int = PAPER_SYNTHETIC_REQUESTS
    num_clusters: int = 64
    threads_per_cluster: int = 16
    mean_gap_cycles: float = 40.0
    write_fraction: float = 0.3
    window: int = 8
    hot_cluster: int = 0
    sharing: Optional[Union[str, SharingProfile]] = None
    arrival: Optional[Union[dict, ArrivalSpec]] = None
    description: str = ""

    def __post_init__(self) -> None:
        self.sharing = resolve_sharing(self.sharing, default_sharing_profile)
        if isinstance(self.arrival, dict):
            self.arrival = ArrivalSpec.from_dict(self.arrival)
        if self.num_requests < 1:
            raise ValueError(
                f"request count must be >= 1, got {self.num_requests}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"write fraction must be in [0, 1], got {self.write_fraction}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.mean_gap_cycles < 0:
            raise ValueError(
                f"mean gap must be non-negative, got {self.mean_gap_cycles}"
            )

    #: Params that only shape the replay, never the generated trace (the
    #: sweep engine's trace cache ignores them when keying signatures).
    replay_only_params = ("window",)

    @property
    def is_synthetic(self) -> bool:
        return True

    def destination(self, cluster: int, rng: random.Random) -> int:
        """Home cluster for a request issued by ``cluster``."""
        if self.pattern is SyntheticPattern.UNIFORM:
            return rng.randrange(self.num_clusters)
        if self.pattern is SyntheticPattern.HOT_SPOT:
            return self.hot_cluster
        if self.pattern is SyntheticPattern.TORNADO:
            return tornado_destination(cluster, self.num_clusters)
        if self.pattern is SyntheticPattern.TRANSPOSE:
            return transpose_destination(cluster, self.num_clusters)
        if self.pattern is SyntheticPattern.BIT_REVERSAL:
            return bit_reversal_destination(cluster, self.num_clusters)
        if self.pattern is SyntheticPattern.NEIGHBOR:
            return neighbor_destination(cluster, self.num_clusters)
        raise ValueError(f"unknown pattern {self.pattern}")

    def _emit_records(
        self, builder: PackedTraceBuilder, seed: int, total: int
    ) -> None:
        """Drive the generation loop, appending each record to ``builder``.

        The rng draw sequence depends only on the workload parameters and
        ``seed``, so a trace is reproducible from them alone.
        """
        append = builder.append
        rng = random.Random(seed)
        total_threads = self.num_clusters * self.threads_per_cluster
        base, remainder = divmod(total, total_threads)
        # Threads of a real application are mid-execution when a trace window
        # opens; staggering their first miss avoids an artificial thundering
        # herd at t = 0 that no steady-state system would see.
        stagger_cycles = 8.0 * self.mean_gap_cycles
        # Open-loop arrivals replace every gap draw (including the stagger:
        # the process defines the full schedule from t = 0) with draws from
        # a dedicated rng, leaving the main rng's destination/write/sharing
        # sequence untouched by rate changes.
        arrivals = arrival_streams(self.arrival, total_threads, seed)
        # Sharing support: when a profile with a non-zero fraction is set,
        # that fraction of misses targets the shared-line pool instead of the
        # pattern's private address space.  The sharing-free path below stays
        # byte-for-byte identical (same rng draw sequence) so existing traces
        # and results are unchanged.
        sharing = self.sharing if self.sharing and self.sharing.enabled else None
        shared_cumulative = sharing.cumulative_weights() if sharing else None
        line_counter = 0
        for thread_id in range(total_threads):
            cluster = thread_id // self.threads_per_cluster
            count = base + (1 if thread_id < remainder else 0)
            thread_arrivals = next(arrivals) if arrivals is not None else None
            for index in range(count):
                if thread_arrivals is not None:
                    gap = thread_arrivals.next_gap()
                else:
                    gap = draw_gap(rng, self.mean_gap_cycles)
                    if index == 0 and stagger_cycles > 0:
                        gap += rng.uniform(0.0, stagger_cycles)
                if sharing is not None and rng.random() < sharing.fraction:
                    line = sharing.draw_line(rng, shared_cumulative)
                    home = home_for_line(line, self.num_clusters)
                    address = shared_line_address(line, self.num_clusters)
                    is_write = rng.random() < sharing.write_fraction
                    shared = True
                else:
                    is_write = rng.random() < self.write_fraction
                    home = self.destination(cluster, rng)
                    # Synthesize an address in the home cluster's region so
                    # the cache/coherence substrate can consume the same
                    # traces.
                    address = (home << 26) | ((line_counter & 0xFFFFF) << 6)
                    line_counter += 1
                    shared = False
                append(thread_id, home, is_write, shared, address, gap)

    def generate_packed(
        self, seed: int = 1, num_requests: Optional[int] = None
    ) -> PackedTrace:
        """Generate the trace in packed columnar form.

        Streams records chunk-wise into the packed columns (three array
        appends per miss, no per-record objects), which is what makes
        paper-scale request counts practical.  ``num_requests`` overrides
        the configured total, which is how the harness scales the paper's
        1 M-request runs down to something a pure Python replay can finish
        quickly.
        """
        total = num_requests if num_requests is not None else self.num_requests
        arrival = self.arrival if self.arrival and self.arrival.enabled else None
        builder = PackedTraceBuilder(
            name=self.name,
            num_clusters=self.num_clusters,
            threads_per_cluster=self.threads_per_cluster,
            description=self.description or f"synthetic {self.pattern.value}",
            arrival_process=arrival.process if arrival else "closed",
            offered_rps=arrival.offered_rps() if arrival else 0.0,
        )
        self._emit_records(builder, seed, total)
        return builder.build()


def uniform_workload(**overrides) -> SyntheticWorkload:
    """The Uniform random pattern (Table 3)."""
    params: Dict = dict(
        name="Uniform",
        pattern=SyntheticPattern.UNIFORM,
        mean_gap_cycles=40.0,
        description="Uniform random destinations, 1 M requests",
    )
    params.update(overrides)
    return SyntheticWorkload(**params)


def hot_spot_workload(**overrides) -> SyntheticWorkload:
    """The Hot Spot pattern: all clusters target one cluster (Table 3)."""
    params: Dict = dict(
        name="Hot Spot",
        pattern=SyntheticPattern.HOT_SPOT,
        mean_gap_cycles=40.0,
        description="All clusters to one cluster, 1 M requests",
    )
    params.update(overrides)
    return SyntheticWorkload(**params)


def tornado_workload(**overrides) -> SyntheticWorkload:
    """The Tornado adversarial permutation (Table 3)."""
    params: Dict = dict(
        name="Tornado",
        pattern=SyntheticPattern.TORNADO,
        mean_gap_cycles=40.0,
        description="Tornado permutation, 1 M requests",
    )
    params.update(overrides)
    return SyntheticWorkload(**params)


def transpose_workload(**overrides) -> SyntheticWorkload:
    """The Transpose permutation (Table 3)."""
    params: Dict = dict(
        name="Transpose",
        pattern=SyntheticPattern.TRANSPOSE,
        mean_gap_cycles=40.0,
        description="Transpose permutation, 1 M requests",
    )
    params.update(overrides)
    return SyntheticWorkload(**params)


def bit_reversal_workload(**overrides) -> SyntheticWorkload:
    """The Bit Reversal (FFT-style) permutation."""
    params: Dict = dict(
        name="Bit Reversal",
        pattern=SyntheticPattern.BIT_REVERSAL,
        mean_gap_cycles=40.0,
        description="Bit-reversal permutation, 1 M requests",
    )
    params.update(overrides)
    return SyntheticWorkload(**params)


def neighbor_workload(**overrides) -> SyntheticWorkload:
    """The Neighbor (producer-consumer) pattern."""
    params: Dict = dict(
        name="Neighbor",
        pattern=SyntheticPattern.NEIGHBOR,
        mean_gap_cycles=40.0,
        description="Producer-consumer neighbor pattern, 1 M requests",
    )
    params.update(overrides)
    return SyntheticWorkload(**params)


#: Factory per pattern, for name-based construction (the Scenario API's
#: workload registry seeds itself from this table).
_PATTERN_FACTORIES: Dict[SyntheticPattern, "object"] = {}


def synthetic_workload(pattern: str, **overrides) -> SyntheticWorkload:
    """Build a synthetic workload by pattern name (e.g. ``"uniform"``).

    ``pattern`` accepts the :class:`SyntheticPattern` values; ``overrides``
    are :class:`SyntheticWorkload` fields (``mean_gap_cycles``, ``sharing``,
    ``name``...).
    """
    try:
        key = SyntheticPattern(pattern.lower().replace(" ", "_"))
    except ValueError:
        known = [p.value for p in SyntheticPattern]
        raise ValueError(
            f"unknown synthetic pattern {pattern!r}; known: {known}"
        ) from None
    return _PATTERN_FACTORIES[key](**overrides)


def synthetic_workloads(**overrides) -> List[SyntheticWorkload]:
    """All synthetic workloads: the paper's four (in its plot order)
    followed by the Bit Reversal and Neighbor extensions."""
    return [
        uniform_workload(**overrides),
        hot_spot_workload(**overrides),
        tornado_workload(**overrides),
        transpose_workload(**overrides),
        bit_reversal_workload(**overrides),
        neighbor_workload(**overrides),
    ]


_PATTERN_FACTORIES.update(
    {
        SyntheticPattern.UNIFORM: uniform_workload,
        SyntheticPattern.HOT_SPOT: hot_spot_workload,
        SyntheticPattern.TORNADO: tornado_workload,
        SyntheticPattern.TRANSPOSE: transpose_workload,
        SyntheticPattern.BIT_REVERSAL: bit_reversal_workload,
        SyntheticPattern.NEIGHBOR: neighbor_workload,
    }
)
