"""Electrical 2D mesh interconnects (the HMesh and LMesh baselines).

The paper's electrical baselines are 8x8 meshes of the 64 clusters using
dimension-order wormhole routing with a per-hop latency of 5 clocks
(forwarding plus wire propagation) and bisection bandwidths of 1.28 TB/s
(HMesh) and 0.64 TB/s (LMesh).  Dynamic energy is charged at 196 pJ per
message per hop, the paper's aggressive low-swing estimate that ignores
leakage.  A mesh takes its cluster count and clock from a
:class:`~repro.core.config.CoronaConfig`; the hop latency
(:data:`HOP_LATENCY_CYCLES`) and the two bisection bandwidths
(:func:`high_performance_mesh`, :func:`low_performance_mesh`) are
constants of the baselines.

The transfer model is wormhole-accurate to first order: the head flit advances
one hop every ``hop latency`` once each successive link is free, each link is
occupied for the full serialization time of the message, and the message
arrives once the tail flit has crossed the final link.  Link contention and
the resulting queueing are therefore captured, which is what produces the
mesh's collapse under the paper's high-bandwidth workloads.  Routers are not
modelled: there is no router buffering and no back-pressure from finite
buffers, only contention for the links.

Routes come from a table built once per mesh shape
(:func:`~repro.network.topology.xy_route_table`, from
:meth:`~repro.network.topology.MeshCoordinates.dimension_order_route`):
entry ``src * num_clusters + dst`` lists the route's links as dense
indices into the mesh's link table, so a transfer walks a tuple instead of
recomputing the route and looking each link up by its endpoints.  Each hop
reserves its link with :func:`~repro.sim.resources.reserve_interval`, the
reservation behind every :class:`~repro.sim.resources.SerialResource`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.network.message import Message
from repro.network.topology import (
    Interconnect,
    MeshCoordinates,
    TransferResult,
    xy_route_table,
)
from repro.sim.resources import SerialResource, reserve_interval

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig

#: Dynamic energy of one message crossing one mesh hop: 196 pJ.
ENERGY_PER_HOP_J = 196e-12

#: Clocks for a head flit to cross one hop (forwarding plus wire).
HOP_LATENCY_CYCLES = 5.0


class ElectricalMesh(Interconnect):
    """A 2D mesh with dimension-order wormhole routing.

    A square mesh of the ``config``'s ``num_clusters``, clocked at its
    ``clock_hz``, with :data:`HOP_LATENCY_CYCLES` per hop; its links share
    ``bisection_bandwidth_bytes_per_s`` across the bisection.
    """

    __slots__ = (
        "coordinates",
        "hop_latency_s",
        "energy_per_hop_j",
        "link_bandwidth_bytes_per_s",
        "links",
        "_link_table",
        "_routes",
        "_fault_link_slow",
    )

    def __init__(
        self,
        config: "CoronaConfig",
        name: str,
        bisection_bandwidth_bytes_per_s: float,
    ) -> None:
        num_clusters = config.num_clusters
        super().__init__(name=name, num_clusters=num_clusters, clock_hz=config.clock_hz)
        if bisection_bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bisection bandwidth must be positive, got {bisection_bandwidth_bytes_per_s}"
            )
        self.coordinates = MeshCoordinates.square(num_clusters)
        self.hop_latency_s = HOP_LATENCY_CYCLES / config.clock_hz
        self.energy_per_hop_j = ENERGY_PER_HOP_J

        # Per-link bandwidth is set so that the links crossing the bisection
        # add up to the configured bisection bandwidth.
        bisection_links = self.coordinates.bisection_link_count()
        self.link_bandwidth_bytes_per_s = (
            bisection_bandwidth_bytes_per_s / bisection_links
        )

        #: One serial resource per directed link, keyed ``(src, dst)`` in
        #: :meth:`MeshCoordinates.all_links` order, the order the route
        #: table's link indices refer to.
        self.links: Dict[Tuple[int, int], SerialResource] = {
            (src, dst): SerialResource(name=f"link-{src}-{dst}")
            for src, dst in self.coordinates.all_links()
        }
        #: Hot-path view of the links, by route-table index: each link's
        #: serial resource, its interval lists and its fault-table key
        #: ``src * num_clusters + dst``.
        self._link_table: List[
            Tuple[SerialResource, List[float], List[float], int]
        ] = [
            (link, link._starts, link._ends, src * num_clusters + dst)
            for (src, dst), link in self.links.items()
        ]
        self._routes = xy_route_table(
            self.coordinates.radix_x, self.coordinates.radix_y
        )
        #: Fault injection hook (:mod:`repro.faults.inject`): serialization
        #: multipliers for partially dead links, keyed
        #: ``src * num_clusters + dst``.  ``None`` on fault-free builds, so
        #: the per-hop hot path pays one ``is None`` check and computes
        #: bit-identical results.
        self._fault_link_slow: Optional[Dict[int, float]] = None

    # -- Interconnect interface ---------------------------------------------
    def transfer(self, message: Message, now: float) -> TransferResult:
        src = message.src
        dst = message.dst
        num_clusters = self.num_clusters
        if src >= num_clusters or dst >= num_clusters:
            raise ValueError(f"message endpoints {src}->{dst} outside mesh")
        if src == dst:
            result = TransferResult(now, 0.0, 0.0, 0.0, 0, 0.0)
            self.record_transfer(message, result)
            return result

        size = message.size_bytes
        serialization = size / self.link_bandwidth_bytes_per_s
        route = self._routes[src * num_clusters + dst]
        links = self._link_table
        link_slow = self._fault_link_slow
        hop_latency = self.hop_latency_s
        reserve = reserve_interval

        head_time = now
        queueing = 0.0
        hop_serialization = serialization
        for link in route:
            resource, starts, ends, link_key = links[link]
            if link_slow is not None:
                # Partially dead link: survivors carry the message at a
                # fraction of the bandwidth (degraded, never severed).
                hop_serialization = serialization * link_slow.get(link_key, 1.0)
            # SerialResource.reserve on the link's bound lists, minus its
            # argument checks: head_time and the serialization are never
            # negative here.
            high_water = resource._high_water_request
            if head_time > high_water:
                resource._high_water_request = high_water = head_time
            start = reserve(starts, ends, head_time, hop_serialization, high_water)
            resource.busy_time += hop_serialization
            queueing += start - head_time
            # Head flit crosses this hop; body/tail pipeline behind it.
            head_time = start + hop_latency
        # The tail crosses the final link at that link's (possibly degraded)
        # rate; the reported serialization stays the nominal per-link figure.
        hops = len(route)
        arrival = head_time + hop_serialization
        energy = hops * self.energy_per_hop_j

        # record_transfer, inlined.
        self.messages_sent += 1
        self.bytes_sent += size
        self.total_dynamic_energy_j += energy
        # TransferResult's fields, built without its generated __new__.
        return tuple.__new__(
            TransferResult,
            (arrival, queueing, serialization, hops * hop_latency, hops, energy),
        )

    # -- reporting ------------------------------------------------------------
    def most_utilized_links(
        self, elapsed_seconds: float, count: int = 5
    ) -> List[Tuple[Tuple[int, int], float]]:
        """The ``count`` hottest links -- useful for diagnosing Hot Spot runs."""
        utilizations = [
            (pair, link.utilization(elapsed_seconds))
            for pair, link in self.links.items()
        ]
        utilizations.sort(key=lambda item: item[1], reverse=True)
        return utilizations[:count]


def high_performance_mesh(config: "CoronaConfig") -> ElectricalMesh:
    """The paper's HMesh: 1.28 TB/s bisection bandwidth, 5-clock hops."""
    return ElectricalMesh(config, "HMesh", 1.28e12)


def low_performance_mesh(config: "CoronaConfig") -> ElectricalMesh:
    """The paper's LMesh: 0.64 TB/s bisection bandwidth, 5-clock hops."""
    return ElectricalMesh(config, "LMesh", 0.64e12)
