"""The full off-stack memory system: one controller per cluster.

A :class:`MemorySystem` builds the per-cluster controllers of a
:class:`~repro.core.config.CoronaConfig`, each with its channel, its DRAM
module and its request queue: ``num_clusters`` controllers whose DRAM
answers in ``memory_latency_s``.  The system simulator binds the
``controllers`` table once and sends every access straight to the home
cluster's :meth:`~repro.memory.controller.MemoryController.access`; the
achieved bandwidth of Figures 9 and 10 comes from the replay's own byte
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict

from repro.memory.channel import MemoryChannel
from repro.memory.controller import MemoryController
from repro.memory.dram import DramTimings, OcmModule

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig


@dataclass
class MemorySystem:
    """A collection of per-cluster memory controllers.

    Parameters
    ----------
    config:
        The system's configuration: one controller per cluster
        (``num_clusters``, numbered ``0..n-1``), each with DRAM of latency
        ``memory_latency_s`` (Table 4: 20 ns for both designs).
    name:
        "OCM" or "ECM" in the paper's configuration names.
    channel_factory:
        Builds the external channel of one controller from its name.
    """

    config: "CoronaConfig"
    name: str
    channel_factory: Callable[[str], MemoryChannel]
    controllers: Dict[int, MemoryController] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        timings = DramTimings(access_latency_s=self.config.memory_latency_s)
        self.controllers = {
            controller_id: MemoryController(
                controller_id=controller_id,
                channel=self.channel_factory(f"{self.name}-ch{controller_id}"),
                module=OcmModule(module_id=0, timings=timings),
            )
            for controller_id in range(self.config.num_clusters)
        }

    @property
    def num_controllers(self) -> int:
        return len(self.controllers)

    def controller(self, cluster: int) -> MemoryController:
        if cluster not in self.controllers:
            raise ValueError(
                f"cluster {cluster} has no memory controller "
                f"(system has {self.num_controllers})"
            )
        return self.controllers[cluster]
