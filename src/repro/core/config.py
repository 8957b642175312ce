"""The Corona design point (Table 1 of the paper) and derived quantities.

``CoronaConfig`` is the single source of truth for the architecture's
parameters: cluster/core counts, cache geometry, clock, interconnect widths
and memory bandwidths.  Every other subsystem takes its numbers from here, so
re-parameterizing the design (say, 32 clusters or a 2.5 GHz clock) propagates
consistently through the interconnect models, the photonic inventory, the
power roll-up and the benchmark harness.

A scenario's ``system.overrides`` reach it through
:meth:`CoronaConfig.with_overrides`, which :mod:`repro.spec` reads from the
field annotations: a new field needs only its annotation, its default and,
if it has one, a range check in ``__post_init__`` that names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.cores.cluster import ClusterParameters
from repro.cores.core import CoreParameters
from repro.spec import ScenarioError, check_fields, read


@dataclass(frozen=True)
class CoronaConfig:
    """Architecture-level configuration of a Corona system.

    It is the only way to set the parameters of a replayed system
    (:class:`~repro.core.system.SystemSimulator`).  The fields that drive
    the replay are ``num_clusters``, ``core.frequency_hz``, the
    ``crossbar_*`` fields, ``signalling_rate_bps``,
    ``token_ring_round_trip_cycles``, ``memory_latency_s``,
    ``cluster.l2_mshrs`` and ``cluster.hub_queue_depth``.  The other fields
    feed only the tables and the power roll-up.
    """

    num_clusters: int = 64
    cluster: ClusterParameters = field(default_factory=ClusterParameters)
    core: CoreParameters = field(default_factory=CoreParameters)

    # On-stack interconnect (Section 3.2).
    crossbar_wavelengths_per_waveguide: int = 64
    crossbar_waveguides_per_channel: int = 4
    signalling_rate_bps: float = 10e9
    crossbar_max_propagation_cycles: float = 8.0
    token_ring_round_trip_cycles: float = 8.0

    # Off-stack memory (Section 3.3).
    memory_links_per_controller: int = 2
    memory_wavelengths_per_link: int = 64
    memory_latency_s: float = 20e-9

    def __post_init__(self) -> None:
        check_fields(self)
        if self.num_clusters < 2:
            raise ScenarioError(
                "num_clusters", f"need at least two clusters, got {self.num_clusters}"
            )
        for name in (
            "crossbar_wavelengths_per_waveguide",
            "crossbar_waveguides_per_channel",
        ):
            if getattr(self, name) < 1:
                raise ScenarioError(name, f"must be >= 1, got {getattr(self, name)}")
        for name in ("crossbar_max_propagation_cycles", "token_ring_round_trip_cycles"):
            if getattr(self, name) < 0:
                raise ScenarioError(name, f"must be >= 0, got {getattr(self, name)}")
        if self.signalling_rate_bps <= 0:
            raise ScenarioError("signalling_rate_bps", "signalling rate must be positive")
        if self.memory_latency_s <= 0:
            raise ScenarioError("memory_latency_s", "memory latency must be positive")

    # -- structural totals ----------------------------------------------------
    @property
    def num_cores(self) -> int:
        return self.num_clusters * self.cluster.cores

    @property
    def num_threads(self) -> int:
        return self.num_cores * self.core.threads

    @property
    def clock_hz(self) -> float:
        return self.core.frequency_hz

    @property
    def peak_flops(self) -> float:
        """Chip peak double-precision FLOP/s (10 teraflops for the default)."""
        return self.num_cores * self.core.peak_flops

    # -- interconnect bandwidths ----------------------------------------------
    @property
    def crossbar_channel_width_bits(self) -> int:
        return (
            self.crossbar_wavelengths_per_waveguide
            * self.crossbar_waveguides_per_channel
        )

    @property
    def crossbar_channel_bandwidth_bytes_per_s(self) -> float:
        """Per-cluster crossbar bandwidth: 2.56 Tb/s = 320 GB/s."""
        return self.crossbar_channel_width_bits * self.signalling_rate_bps / 8.0

    @property
    def crossbar_total_bandwidth_bytes_per_s(self) -> float:
        """Aggregate crossbar bandwidth: 20.48 TB/s for the default design."""
        return self.num_clusters * self.crossbar_channel_bandwidth_bytes_per_s

    @property
    def memory_bandwidth_per_controller_bytes_per_s(self) -> float:
        """Per-controller OCM bandwidth: 160 GB/s."""
        return (
            self.memory_links_per_controller
            * self.memory_wavelengths_per_link
            * self.signalling_rate_bps
            / 8.0
        )

    @property
    def memory_total_bandwidth_bytes_per_s(self) -> float:
        """Aggregate OCM bandwidth: 10.24 TB/s for the default design."""
        return (
            self.num_clusters * self.memory_bandwidth_per_controller_bytes_per_s
        )

    @property
    def bytes_per_flop(self) -> float:
        """The design target of roughly one byte per flop of memory bandwidth."""
        return self.memory_total_bandwidth_bytes_per_s / self.peak_flops

    # -- re-parameterization ---------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, object]) -> "CoronaConfig":
        """A copy of this configuration with ``overrides`` applied by name.

        ``overrides`` maps top-level field names to new values; the nested
        ``cluster`` and ``core`` parameter blocks accept a mapping of their
        own field names (``{"cluster": {"cores": 2}}``).  It is read like
        every scenario node (:func:`repro.spec.read`), so an unknown name, a
        wrongly typed value or an out-of-range one raises a
        :class:`~repro.spec.ScenarioError` naming its field
        (``overrides.cluster.l2_mshrs``).
        """
        return read(type(self), overrides, "overrides", base=self)

    # -- reporting -------------------------------------------------------------
    def resource_configuration_rows(self) -> List[Tuple[str, str]]:
        """Rows of Table 1, in the paper's order."""
        cluster = self.cluster
        core = self.core
        return [
            ("Number of clusters", str(self.num_clusters)),
            ("L2 cache size/assoc",
             f"{cluster.l2_cache_bytes // (1024 * 1024)} MB/{cluster.l2_associativity}-way"),
            ("L2 cache line size", f"{cluster.l2_line_bytes} B"),
            ("L2 coherence", cluster.l2_coherence),
            ("Memory controllers", str(cluster.memory_controllers)),
            ("Cores", str(cluster.cores)),
            ("L1 ICache size/assoc",
             f"{core.l1_icache_bytes // 1024} KB/{core.l1_icache_assoc}-way"),
            ("L1 DCache size/assoc",
             f"{core.l1_dcache_bytes // 1024} KB/{core.l1_dcache_assoc}-way"),
            ("L1 I & D cache line size", f"{core.cache_line_bytes} B"),
            ("Frequency", f"{core.frequency_hz / 1e9:g} GHz"),
            ("Threads", str(core.threads)),
            ("Issue policy", "In-order" if core.in_order else "Out-of-order"),
            ("Issue width", str(core.issue_width)),
            ("64 b floating point SIMD width", str(core.simd_width)),
            ("Fused floating point operations",
             "Multiply-Add" if core.fused_multiply_add else "None"),
        ]

    def summary(self) -> Dict[str, float]:
        """Headline numbers the paper's abstract quotes."""
        return {
            "clusters": self.num_clusters,
            "cores": self.num_cores,
            "threads": self.num_threads,
            "peak_teraflops": self.peak_flops / 1e12,
            "crossbar_bandwidth_tbps": self.crossbar_total_bandwidth_bytes_per_s / 1e12,
            "memory_bandwidth_tbps": self.memory_total_bandwidth_bytes_per_s / 1e12,
            "bytes_per_flop": self.bytes_per_flop,
        }


#: The paper's design point.
CORONA_DEFAULT = CoronaConfig()
