"""The full off-stack memory system: one controller per cluster.

The system simulator talks to this object: given a home cluster, an access
size and a direction, it performs the access at that cluster's controller and
returns the completion time.  Aggregate statistics (achieved bandwidth, per
controller utilization) feed Figures 9 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.memory.channel import MemoryChannel
from repro.memory.controller import MemoryAccessResult, MemoryController
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

    def access(
        self,
        home_cluster: int,
        now: float,
        size_bytes: int,
        is_write: bool,
        address: int = 0,
    ) -> MemoryAccessResult:
        """Perform a memory access at the home cluster's controller."""
        return self.controller(home_cluster).access(
            now=now, size_bytes=size_bytes, is_write=is_write, address=address
        )

    # -- aggregate properties --------------------------------------------------
    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Aggregate peak memory bandwidth across all controllers."""
        return sum(
            c.channel.peak_bandwidth_bytes_per_s for c in self.controllers.values()
        )

    def interconnect_power_w(self) -> float:
        """Total memory interconnect power at peak signalling rate."""
        return sum(c.channel.interconnect_power_w for c in self.controllers.values())

    def achieved_bandwidth_bytes_per_s(self, elapsed_seconds: float) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        total_bytes = sum(c.bytes_transferred for c in self.controllers.values())
        return total_bytes / elapsed_seconds

    def total_accesses(self) -> int:
        return sum(c.accesses for c in self.controllers.values())

    def busiest_controllers(self, count: int = 5) -> List[tuple[int, float]]:
        ordered = sorted(
            ((cid, c.bytes_transferred) for cid, c in self.controllers.items()),
            key=lambda item: item[1],
            reverse=True,
        )
        return ordered[:count]

    def dram_energy_j(self) -> float:
        return sum(c.dram_energy_j() for c in self.controllers.values())
