"""The full off-stack memory system: one controller per cluster.

A :class:`MemorySystem` builds the per-cluster controllers, each with its
channel, its DRAM module and its request queue.  The system simulator binds
the ``controllers`` table once and sends every access straight to the home
cluster's :meth:`~repro.memory.controller.MemoryController.access`; the
achieved bandwidth of Figures 9 and 10 comes from the replay's own byte
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.memory.channel import MemoryChannel
from repro.memory.controller import MemoryController
from repro.memory.dram import DramTimings, OcmModule


@dataclass
class MemorySystem:
    """A collection of per-cluster memory controllers.

    Parameters
    ----------
    name:
        "OCM" or "ECM" in the paper's configuration names.
    channel_factory:
        Builds the external channel for one controller.
    num_controllers:
        One per cluster (64).  The controllers are numbered ``0..n-1``.
    queue_depth:
        Request-queue capacity of each controller (64 for OCM and ECM).
    dram_timings:
        Timing of each controller's DRAM banks, the memory latency included
        (Table 4: 20 ns for both designs).
    """

    name: str
    channel_factory: Callable[[str], MemoryChannel]
    num_controllers: int = 64
    queue_depth: int = 64
    dram_timings: DramTimings = field(default_factory=DramTimings)
    controllers: Dict[int, MemoryController] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_controllers < 1:
            raise ValueError(
                f"need at least one controller, got {self.num_controllers}"
            )
        self.controllers = {
            controller_id: MemoryController(
                controller_id=controller_id,
                channel=self.channel_factory(f"{self.name}-ch{controller_id}"),
                module=OcmModule(module_id=0, timings=self.dram_timings),
                queue_depth=self.queue_depth,
            )
            for controller_id in range(self.num_controllers)
        }

    def controller(self, cluster: int) -> MemoryController:
        if cluster not in self.controllers:
            raise ValueError(
                f"cluster {cluster} has no memory controller "
                f"(system has {self.num_controllers})"
            )
        return self.controllers[cluster]
