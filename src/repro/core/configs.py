"""The five system configurations evaluated in the paper (Section 4).

=============  =========================  ==========================
Configuration  On-stack interconnect      Memory interconnect
=============  =========================  ==========================
XBar/OCM       Optical crossbar, 20 TB/s  Optical, 10.24 TB/s, 20 ns
HMesh/OCM      Electrical mesh, 1.28 TB/s Optical, 10.24 TB/s, 20 ns
LMesh/OCM      Electrical mesh, 0.64 TB/s Optical, 10.24 TB/s, 20 ns
HMesh/ECM      Electrical mesh, 1.28 TB/s Electrical, 0.96 TB/s, 20 ns
LMesh/ECM      Electrical mesh, 0.64 TB/s Electrical, 0.96 TB/s, 20 ns
=============  =========================  ==========================

``XBar/OCM`` is the Corona design; ``LMesh/ECM`` is the all-electrical
baseline every speedup in Figure 8 is normalized to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.config import CoronaConfig, CORONA_DEFAULT
from repro.memory.ecm import ElectricallyConnectedMemory
from repro.memory.ocm import OpticallyConnectedMemory
from repro.memory.system import MemorySystem
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import high_performance_mesh, low_performance_mesh
from repro.network.topology import Interconnect


@dataclass(frozen=True)
class SystemConfiguration:
    """One evaluated system: an on-stack network plus a memory system."""

    name: str
    network_name: str
    memory_name: str
    network_factory: Callable[[CoronaConfig], Interconnect]
    memory_factory: Callable[[CoronaConfig], MemorySystem]
    #: Whether the design includes the optical broadcast bus (Section 3.2.2).
    #: Only the photonic Corona stack carries it; on electrical baselines
    #: coherence invalidations fall back to per-sharer unicasts.
    has_broadcast_bus: bool = False

    def build_network(self, config: CoronaConfig = CORONA_DEFAULT) -> Interconnect:
        return self.network_factory(config)

    def build_memory(self, config: CoronaConfig = CORONA_DEFAULT) -> MemorySystem:
        return self.memory_factory(config)

    @property
    def is_corona(self) -> bool:
        return self.network_name == "XBar" and self.memory_name == "OCM"


def crossbar_network(config: CoronaConfig) -> Interconnect:
    """The Section 3.2 optical crossbar, sized from ``config``.

    Public so user modules (scenario ``modules`` entries, the Scenario API's
    ``@register_configuration`` factories) can compose custom
    :class:`SystemConfiguration`s from the same building blocks the five
    paper configurations use.
    """
    return OpticalCrossbar(
        num_clusters=config.num_clusters,
        clock_hz=config.clock_hz,
        channel_bandwidth_bytes_per_s=config.crossbar_channel_bandwidth_bytes_per_s,
        max_propagation_cycles=config.crossbar_max_propagation_cycles,
        ring_round_trip_cycles=config.token_ring_round_trip_cycles,
    )


def hmesh_network(config: CoronaConfig) -> Interconnect:
    """The high-performance (1.28 TB/s) electrical mesh baseline."""
    return high_performance_mesh(
        num_clusters=config.num_clusters, clock_hz=config.clock_hz
    )


def lmesh_network(config: CoronaConfig) -> Interconnect:
    """The low-performance (0.64 TB/s) electrical mesh baseline."""
    return low_performance_mesh(
        num_clusters=config.num_clusters, clock_hz=config.clock_hz
    )


def ocm_memory(config: CoronaConfig) -> MemorySystem:
    """Optically connected memory: 10.24 TB/s aggregate at 64 controllers."""
    return OpticallyConnectedMemory(
        num_controllers=config.num_clusters,
        memory_latency_s=config.memory_latency_s,
    )


def ecm_memory(config: CoronaConfig) -> MemorySystem:
    """Electrically connected memory: the 0.96 TB/s package-pin baseline."""
    return ElectricallyConnectedMemory(
        num_controllers=config.num_clusters,
        memory_latency_s=config.memory_latency_s,
    )


_CONFIGURATIONS: List[SystemConfiguration] = [
    SystemConfiguration(
        name="LMesh/ECM",
        network_name="LMesh",
        memory_name="ECM",
        network_factory=lmesh_network,
        memory_factory=ecm_memory,
    ),
    SystemConfiguration(
        name="HMesh/ECM",
        network_name="HMesh",
        memory_name="ECM",
        network_factory=hmesh_network,
        memory_factory=ecm_memory,
    ),
    SystemConfiguration(
        name="LMesh/OCM",
        network_name="LMesh",
        memory_name="OCM",
        network_factory=lmesh_network,
        memory_factory=ocm_memory,
    ),
    SystemConfiguration(
        name="HMesh/OCM",
        network_name="HMesh",
        memory_name="OCM",
        network_factory=hmesh_network,
        memory_factory=ocm_memory,
    ),
    SystemConfiguration(
        name="XBar/OCM",
        network_name="XBar",
        memory_name="OCM",
        network_factory=crossbar_network,
        memory_factory=ocm_memory,
        has_broadcast_bus=True,
    ),
]

#: The reference configuration every speedup is normalized against.
BASELINE_CONFIGURATION_NAME = "LMesh/ECM"

#: Plot order used by the paper's figures (baseline first, Corona last).
CONFIGURATION_ORDER = [c.name for c in _CONFIGURATIONS]


def all_configurations() -> List[SystemConfiguration]:
    """The five configurations in the paper's plot order."""
    return list(_CONFIGURATIONS)


def configuration_by_name(name: str) -> SystemConfiguration:
    """Look up a configuration by its paper name (e.g. ``"XBar/OCM"``)."""
    table: Dict[str, SystemConfiguration] = {c.name: c for c in _CONFIGURATIONS}
    if name not in table:
        raise KeyError(
            f"unknown configuration {name!r}; known: {sorted(table)}"
        )
    return table[name]


def corona_configuration() -> SystemConfiguration:
    """The Corona design point (XBar/OCM)."""
    return configuration_by_name("XBar/OCM")
