"""Cluster parameters (Figure 2b / Table 1 of the Corona paper).

A cluster is four cores sharing a 4 MB, 16-way unified L2 cache, a directory,
a memory controller, a network interface and a hub that routes traffic among
them and onto the optical interconnect.  The cluster is the unit of the
crossbar (64 clusters = 64 channels) and the unit of memory interleaving (one
memory controller per cluster).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spec import ScenarioError, check_fields


@dataclass(frozen=True)
class ClusterParameters:
    """Per-cluster resources (Table 1); ``l2_mshrs`` and ``hub_queue_depth``
    size each replayed cluster's :class:`~repro.cores.hub.Hub`."""

    cores: int = 4
    l2_cache_bytes: int = 4 * 1024 * 1024
    l2_associativity: int = 16
    l2_line_bytes: int = 64
    l2_coherence: str = "MOESI"
    memory_controllers: int = 1
    l2_mshrs: int = 64
    hub_queue_depth: int = 64

    def __post_init__(self) -> None:
        check_fields(self)
        if self.cores < 1:
            raise ScenarioError("cores", "cluster must contain at least one core")
        if self.l2_cache_bytes <= 0:
            raise ScenarioError("l2_cache_bytes", "invalid L2 configuration")
        if self.l2_associativity < 1:
            raise ScenarioError("l2_associativity", "invalid L2 configuration")
        if self.memory_controllers < 1:
            raise ScenarioError(
                "memory_controllers", "cluster needs at least one memory controller"
            )
        if self.l2_mshrs < 1:
            raise ScenarioError("l2_mshrs", "cluster needs at least one L2 MSHR")
        if self.hub_queue_depth < 1:
            raise ScenarioError(
                "hub_queue_depth", "hub queue depth must be at least one"
            )
