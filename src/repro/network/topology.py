"""Interconnect interface and topology helpers.

Every on-stack interconnect (optical crossbar, electrical meshes) implements
the same small interface: ``transfer`` moves a message from a source cluster
to a destination cluster starting no earlier than ``now`` and returns a
:class:`TransferResult` describing when it arrived and what it cost.  The
system simulator is therefore completely agnostic of which network it drives,
exactly mirroring the paper's five-configuration comparison.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from repro.network.message import Message


class TransferResult(NamedTuple):
    """Outcome of one message transfer across an interconnect.

    A :class:`~typing.NamedTuple` rather than a dataclass: transfer results
    are created twice per remote miss on the replay hot path, and tuple
    construction is several times cheaper than a frozen dataclass while
    staying immutable.  The per-miss transfers skip the generated
    ``__new__`` (a Python frame) with ``tuple.__new__(TransferResult,
    fields)``, which builds the same object.

    Attributes
    ----------
    arrival_time:
        Absolute simulated time at which the last bit arrives at the
        destination.
    queueing_delay:
        Time spent waiting for arbitration / free links before the message
        started moving.
    serialization_delay:
        Time spent clocking the message onto the channel(s).
    propagation_delay:
        Time of flight (including per-hop forwarding latency for meshes).
    hops:
        Number of router-to-router hops traversed (0 for a crossbar).
    dynamic_energy_j:
        Dynamic energy attributed to this transfer.
    """

    arrival_time: float
    queueing_delay: float
    serialization_delay: float
    propagation_delay: float
    hops: int
    dynamic_energy_j: float

    @property
    def network_latency(self) -> float:
        """Total latency contributed by the interconnect."""
        return self.queueing_delay + self.serialization_delay + self.propagation_delay


class MulticastResult(NamedTuple):
    """Outcome of delivering one logical message to several destinations.

    ``last_arrival`` is what a requester waiting on every delivery (e.g. a
    directory collecting invalidation acknowledgements) experiences;
    ``messages``/``hops`` count the physical messages the fan-out cost, which
    is where a unicast-only network pays for multicasts the broadcast bus
    gets for one message.
    """

    last_arrival: float
    #: Queueing delay of the slowest leg.
    queueing_delay: float
    hops: int
    messages: int


class Interconnect(abc.ABC):
    """Abstract on-stack interconnect."""

    __slots__ = (
        "name",
        "num_clusters",
        "clock_hz",
        "messages_sent",
        "bytes_sent",
        "total_dynamic_energy_j",
    )

    def __init__(self, name: str, num_clusters: int, clock_hz: float) -> None:
        if num_clusters < 2:
            raise ValueError(f"need at least two clusters, got {num_clusters}")
        if clock_hz <= 0:
            raise ValueError(f"clock must be positive, got {clock_hz}")
        self.name = name
        self.num_clusters = num_clusters
        self.clock_hz = clock_hz
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.total_dynamic_energy_j = 0.0

    @abc.abstractmethod
    def transfer(self, message: Message, now: float) -> TransferResult:
        """Move ``message`` starting no earlier than ``now``."""

    def multicast(
        self, message: Message, destinations: List[int], now: float
    ) -> MulticastResult:
        """Deliver ``message`` to every cluster in ``destinations``.

        A unicast fan-out: one :meth:`transfer` per destination
        (``message.dst`` is mutated in place, matching the replay engine's
        reusable-message convention), each reserving its own links/channels.
        Corona's invalidations skip it: the coherence engine sends them as
        one :meth:`~repro.network.broadcast.OpticalBroadcastBus.
        broadcast_invalidate` when the design has the bus.  Destinations
        equal to ``message.src`` are skipped -- a cluster never needs the
        network to invalidate itself.
        """
        last_arrival = now
        slowest_queueing = 0.0
        hops = 0
        messages = 0
        src = message.src
        transfer = self.transfer
        for dst in destinations:
            if dst == src:
                continue
            message.dst = dst
            result = transfer(message, now)
            if result.arrival_time > last_arrival:
                last_arrival = result.arrival_time
                slowest_queueing = result.queueing_delay
            hops += result.hops
            messages += 1
        return MulticastResult(
            last_arrival=last_arrival,
            queueing_delay=slowest_queueing,
            hops=hops,
            messages=messages,
        )

    def static_power_w(self) -> float:
        """Always-on power (lasers, ring trimming, clocking); zero by default."""
        return 0.0

    def record_transfer(self, message: Message, result: TransferResult) -> None:
        """Accumulate book-keeping common to every interconnect."""
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.total_dynamic_energy_j += result.dynamic_energy_j

    def dynamic_power_w(self, elapsed_seconds: float) -> float:
        """Average dynamic power over ``elapsed_seconds`` of simulated time."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.total_dynamic_energy_j / elapsed_seconds


@dataclass(frozen=True)
class MeshCoordinates:
    """Maps cluster ids onto an (x, y) grid and computes routes."""

    radix_x: int
    radix_y: int

    def __post_init__(self) -> None:
        if self.radix_x < 1 or self.radix_y < 1:
            raise ValueError("mesh radix must be at least 1 in each dimension")

    @classmethod
    def square(cls, num_clusters: int) -> "MeshCoordinates":
        import math

        radix = int(round(math.sqrt(num_clusters)))
        if radix * radix != num_clusters:
            raise ValueError(
                f"cannot build a square mesh from {num_clusters} clusters"
            )
        return cls(radix_x=radix, radix_y=radix)

    @property
    def num_nodes(self) -> int:
        return self.radix_x * self.radix_y

    def position(self, cluster: int) -> Tuple[int, int]:
        if not 0 <= cluster < self.num_nodes:
            raise ValueError(f"cluster {cluster} outside mesh of {self.num_nodes}")
        return cluster % self.radix_x, cluster // self.radix_x

    def cluster_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.radix_x and 0 <= y < self.radix_y):
            raise ValueError(f"position ({x}, {y}) outside mesh")
        return y * self.radix_x + x

    def dimension_order_route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """The XY (dimension-order) route as a list of directed node pairs.

        Returns the sequence of ``(from_node, to_node)`` link traversals; an
        empty list when ``src == dst``.
        """
        route: List[Tuple[int, int]] = []
        sx, sy = self.position(src)
        dx, dy = self.position(dst)
        x, y = sx, sy
        while x != dx:
            step = 1 if dx > x else -1
            nxt = self.cluster_at(x + step, y)
            route.append((self.cluster_at(x, y), nxt))
            x += step
        while y != dy:
            step = 1 if dy > y else -1
            nxt = self.cluster_at(x, y + step)
            route.append((self.cluster_at(x, y), nxt))
            y += step
        return route

    def all_links(self) -> List[Tuple[int, int]]:
        """Every directed link in the mesh."""
        links: List[Tuple[int, int]] = []
        for y in range(self.radix_y):
            for x in range(self.radix_x):
                node = self.cluster_at(x, y)
                if x + 1 < self.radix_x:
                    east = self.cluster_at(x + 1, y)
                    links.append((node, east))
                    links.append((east, node))
                if y + 1 < self.radix_y:
                    north = self.cluster_at(x, y + 1)
                    links.append((node, north))
                    links.append((north, node))
        return links

    def bisection_link_count(self) -> int:
        """Directed links crossing the vertical bisection of the mesh."""
        # A vertical cut between column radix_x/2 - 1 and radix_x/2 severs one
        # link pair per row.
        return 2 * self.radix_y


@functools.lru_cache(maxsize=8)
def xy_route_table(radix_x: int, radix_y: int) -> Tuple[Tuple[int, ...], ...]:
    """Every XY route of a ``radix_x`` x ``radix_y`` mesh as dense link indices.

    Entry ``src * num_nodes + dst`` is the route
    :meth:`MeshCoordinates.dimension_order_route` takes, each hop given as
    the link's position in :meth:`MeshCoordinates.all_links`.  The table
    depends only on the mesh shape, so it is built once per shape and
    process and shared, immutable, by every mesh of that shape.
    """
    coordinates = MeshCoordinates(radix_x=radix_x, radix_y=radix_y)
    position = {link: index for index, link in enumerate(coordinates.all_links())}
    nodes = range(coordinates.num_nodes)
    return tuple(
        tuple(position[link] for link in coordinates.dimension_order_route(src, dst))
        for src in nodes
        for dst in nodes
    )
