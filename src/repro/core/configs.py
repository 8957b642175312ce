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
baseline every speedup in Figure 8 is normalized to.  The numbers are those
of the default :class:`~repro.core.config.CoronaConfig`: a configuration
only names its network and memory constructors, and
:class:`~repro.core.system.SystemSimulator` calls them with the config it
replays, so an override reaches every model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.config import CoronaConfig
from repro.memory.ecm import ElectricallyConnectedMemory
from repro.memory.ocm import OpticallyConnectedMemory
from repro.memory.system import MemorySystem
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import high_performance_mesh, low_performance_mesh
from repro.network.topology import Interconnect


@dataclass(frozen=True)
class SystemConfiguration:
    """One evaluated system: an on-stack network plus a memory system.

    The factories are the model constructors themselves (``OpticalCrossbar``,
    ``high_performance_mesh``, ``OpticallyConnectedMemory``, ...), each
    called with the replayed :class:`~repro.core.config.CoronaConfig`; user
    modules compose custom configurations from the same constructors.
    """

    name: str
    network_factory: Callable[[CoronaConfig], Interconnect]
    memory_factory: Callable[[CoronaConfig], MemorySystem]
    #: Whether the design includes the optical broadcast bus (Section 3.2.2).
    #: Only the photonic Corona stack carries it; on electrical baselines
    #: coherence invalidations fall back to per-sharer unicasts.
    has_broadcast_bus: bool = False


_CONFIGURATIONS: List[SystemConfiguration] = [
    SystemConfiguration(
        name="LMesh/ECM",
        network_factory=low_performance_mesh,
        memory_factory=ElectricallyConnectedMemory,
    ),
    SystemConfiguration(
        name="HMesh/ECM",
        network_factory=high_performance_mesh,
        memory_factory=ElectricallyConnectedMemory,
    ),
    SystemConfiguration(
        name="LMesh/OCM",
        network_factory=low_performance_mesh,
        memory_factory=OpticallyConnectedMemory,
    ),
    SystemConfiguration(
        name="HMesh/OCM",
        network_factory=high_performance_mesh,
        memory_factory=OpticallyConnectedMemory,
    ),
    SystemConfiguration(
        name="XBar/OCM",
        network_factory=OpticalCrossbar,
        memory_factory=OpticallyConnectedMemory,
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
