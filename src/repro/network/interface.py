"""Network interfaces and inter-stack DWDM links (Section 3.1 of the paper).

Each cluster's hub connects to a network interface; like the memory
controller's fiber links, the NI drives DWDM fibers off the package so that
*multiple Corona stacks* can be composed into a larger NUMA system.  The paper
only sketches this capability ("Network interfaces, similar to the interface
to off-stack main memory, provide inter-stack communication for larger
systems"), so the model here is intentionally at the same level as the OCM
links: per-NI bandwidth from wavelength count and signalling rate, fiber
flight latency from cable length, serialization and contention from a
:class:`~repro.sim.resources.SerialResource`, and an energy-per-bit figure for
power accounting.  ``MultiStackFabric`` composes the NIs of several stacks
into an all-to-all fabric and estimates the remote-access penalty; no
scenario or benchmark uses it yet, only its unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.sim.resources import SerialResource

#: Speed of light in optical fiber (m/s), index ~1.47.
FIBER_LIGHT_SPEED_M_PER_S = 2.04e8


@dataclass
class NetworkInterface:
    """One cluster's off-stack network interface.

    Parameters
    ----------
    cluster_id:
        The cluster this NI serves.
    wavelengths:
        DWDM wavelengths per direction (matches the OCM links: 64).
    bit_rate_per_wavelength_bps:
        Signalling rate per wavelength (10 Gb/s).
    fiber_length_m:
        One-way fiber length to the partner stack.
    energy_per_bit_j:
        Electrical energy per transmitted bit (modulator + receiver).
    """

    cluster_id: int
    wavelengths: int = 64
    bit_rate_per_wavelength_bps: float = 10e9
    fiber_length_m: float = 1.0
    energy_per_bit_j: float = 100e-15
    _egress: SerialResource = field(init=False, repr=False)
    _ingress: SerialResource = field(init=False, repr=False)
    bytes_sent: float = field(default=0.0, repr=False)
    bytes_received: float = field(default=0.0, repr=False)
    energy_j: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.wavelengths < 1:
            raise ValueError(f"need at least one wavelength, got {self.wavelengths}")
        if self.fiber_length_m < 0:
            raise ValueError(f"fiber length must be non-negative, got {self.fiber_length_m}")
        self._egress = SerialResource(name=f"ni{self.cluster_id}-egress")
        self._ingress = SerialResource(name=f"ni{self.cluster_id}-ingress")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Per-direction NI bandwidth (80 GB/s with the defaults)."""
        return self.wavelengths * self.bit_rate_per_wavelength_bps / 8.0

    @property
    def fiber_latency_s(self) -> float:
        return self.fiber_length_m / FIBER_LIGHT_SPEED_M_PER_S

    def send(self, now: float, size_bytes: float) -> float:
        """Transmit toward the remote stack; returns arrival time there."""
        if size_bytes < 0:
            raise ValueError(f"size must be non-negative, got {size_bytes}")
        duration = size_bytes / self.bandwidth_bytes_per_s
        done = self._egress.reserve(now, duration)
        self.bytes_sent += size_bytes
        self.energy_j += size_bytes * 8.0 * self.energy_per_bit_j
        return done + self.fiber_latency_s

    def receive(self, now: float, size_bytes: float) -> float:
        """Accept traffic arriving from the remote stack; returns drain time."""
        if size_bytes < 0:
            raise ValueError(f"size must be non-negative, got {size_bytes}")
        duration = size_bytes / self.bandwidth_bytes_per_s
        done = self._ingress.reserve(now, duration)
        self.bytes_received += size_bytes
        return done

    def utilization(self, elapsed_seconds: float) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        busy = self._egress.busy_time + self._ingress.busy_time
        return busy / (2 * elapsed_seconds)


@dataclass
class MultiStackFabric:
    """An all-to-all DWDM fabric connecting several Corona stacks.

    Every (stack, cluster) pair owns one :class:`NetworkInterface`; a remote
    access crosses the local cluster's NI, the fiber, and the remote cluster's
    NI.  This is a first-order model of the paper's "larger systems" claim:
    it quantifies how much extra latency and how much NI bandwidth an
    inter-stack NUMA hop costs, without modelling the remote stack's internal
    interconnect (which the single-stack simulator already covers).
    """

    num_stacks: int = 2
    clusters_per_stack: int = 64
    fiber_length_m: float = 1.0
    interfaces: Dict[Tuple[int, int], NetworkInterface] = field(
        default_factory=dict, repr=False
    )
    remote_transfers: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.num_stacks < 2:
            raise ValueError(f"a fabric needs at least two stacks, got {self.num_stacks}")
        if self.clusters_per_stack < 1:
            raise ValueError("each stack needs at least one cluster")
        if not self.interfaces:
            for stack in range(self.num_stacks):
                for cluster in range(self.clusters_per_stack):
                    self.interfaces[(stack, cluster)] = NetworkInterface(
                        cluster_id=cluster, fiber_length_m=self.fiber_length_m
                    )

    def interface(self, stack: int, cluster: int) -> NetworkInterface:
        key = (stack, cluster)
        if key not in self.interfaces:
            raise ValueError(f"no interface for stack {stack}, cluster {cluster}")
        return self.interfaces[key]

    @property
    def aggregate_bandwidth_bytes_per_s(self) -> float:
        """Total egress bandwidth of the fabric."""
        return sum(ni.bandwidth_bytes_per_s for ni in self.interfaces.values())

    def remote_transfer(
        self,
        src_stack: int,
        src_cluster: int,
        dst_stack: int,
        dst_cluster: int,
        size_bytes: float,
        now: float,
    ) -> float:
        """Move ``size_bytes`` between clusters on different stacks.

        Returns the completion time.  Same-stack transfers are rejected --
        they belong to the on-stack interconnect models.
        """
        if src_stack == dst_stack:
            raise ValueError("remote_transfer is for inter-stack traffic only")
        egress = self.interface(src_stack, src_cluster)
        ingress = self.interface(dst_stack, dst_cluster)
        arrival = egress.send(now, size_bytes)
        completed = ingress.receive(arrival, size_bytes)
        self.remote_transfers += 1
        return completed

    def remote_access_penalty_s(self, size_bytes: float = 72.0) -> float:
        """Unloaded extra latency of one inter-stack hop (both NIs + fiber)."""
        interface = next(iter(self.interfaces.values()))
        serialization = 2 * size_bytes / interface.bandwidth_bytes_per_s
        return serialization + interface.fiber_latency_s

    def total_energy_j(self) -> float:
        return sum(ni.energy_j for ni in self.interfaces.values())
