"""The timed coherence traffic engine.

:mod:`repro.cache.coherence` implements the MOESI directory protocol
functionally: it tracks per-line directory state and says which messages each
transition requires.  This module makes those messages *cost time and
resources* inside the replay engine: each shared L2 miss consults the home
cluster's directory, and the resulting protocol actions become reservations
on the same interconnect and memory models the plain request/response traffic
uses:

* **invalidation fan-out** -- on photonic configurations a single message on
  the :class:`~repro.network.broadcast.OpticalBroadcastBus` reaches every
  sharer (Section 3.2.2); on the electrical baselines each sharer costs one
  unicast ``INVALIDATE`` reserving mesh links / crossbar channels;
* **cache-to-cache forwards** -- when a dirty owner exists, the home forwards
  the request to the owner (control message) and the owner supplies the line
  to the requester (data message on the response leg), bypassing memory;
* **dirty writebacks** -- a write that strips an Owned/Modified copy makes
  the previous owner write the line back to home memory, off the requester's
  critical path but reserving interconnect and memory-controller resources.

The engine is deliberately analytic, like the rest of the replay: every
protocol leg is resolved to absolute times via resource reservations the
moment the directory acts, and only the off-critical-path writeback needs an
extra calendar event (scheduled by the caller so memory reservations stay in
global time order).  A write's response is gated on invalidation delivery
(the directory collects acknowledgements before answering), which is what
makes the photonic-vs-electrical invalidation cost visible in miss latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

from repro.cache.coherence import CoherenceController
from repro.network.broadcast import OpticalBroadcastBus
from repro.network.message import Message, MessageType
from repro.sim.stats import RunningStats
from repro.spec import ScenarioError, check_fields

#: Threshold that never triggers a broadcast (electrical configurations).
_NEVER_BROADCAST = 1 << 30


@dataclass(frozen=True)
class CoherenceConfig:
    """Knobs of the coherence traffic subsystem.

    Parameters
    ----------
    broadcast_threshold:
        Minimum sharer count at which an invalidation uses the broadcast bus
        instead of per-sharer unicasts (only on configurations that have the
        bus; Section 3.2.2 argues for a small threshold).
    directory_latency_s:
        Directory lookup/update latency at the home cluster, charged before
        any protocol action.
    owner_l2_latency_s:
        L2 read latency at the owning cluster before a cache-to-cache
        forward leaves it.
    """

    broadcast_threshold: int = 4
    directory_latency_s: float = 1e-9
    owner_l2_latency_s: float = 2e-9

    def __post_init__(self) -> None:
        check_fields(self)
        if self.broadcast_threshold < 1:
            raise ScenarioError(
                "broadcast_threshold",
                f"broadcast threshold must be >= 1, got {self.broadcast_threshold}",
            )
        for name in ("directory_latency_s", "owner_l2_latency_s"):
            if getattr(self, name) < 0:
                raise ScenarioError(name, "coherence latencies must be non-negative")


class CoherentMiss(NamedTuple):
    """Resolved timing of one shared miss's coherence activity.

    Produced by :meth:`CoherenceEngine.process_miss` at the home cluster and
    consumed by the replay's coherent response handler.  ``writeback_time``
    is ``None`` when the miss strips no dirty copy.
    """

    #: Time the directory acted (arrival at home plus directory latency).
    t_dir: float
    #: Cluster that supplies the response (owner for cache-to-cache, else home).
    response_src: int
    #: When the response may leave ``response_src`` (data ready AND
    #: invalidations delivered).
    response_ready: float
    memory_queueing: float
    memory_latency: float
    #: Queueing/hops of the extra coherence legs (forward, invalidation
    #: fan-out), folded into the transaction's statistics.
    extra_queueing: float
    extra_hops: int
    #: Whether the response carries a cache line (data) or is a control ack.
    carries_data: bool
    #: Whether the data comes from a remote owner's cache.
    is_c2c: bool
    #: When the stripped owner's dirty line arrives at home memory, or None.
    writeback_time: Optional[float]


class CoherenceStats:
    """Aggregate counters of the coherence subsystem for one replay."""

    __slots__ = (
        "shared_reads",
        "shared_writes",
        "invalidations_sent",
        "broadcasts_used",
        "unicast_invalidations",
        "c2c_transfers",
        "dirty_writebacks",
        "invalidation_latency",
        "c2c_latency",
    )

    def __init__(self) -> None:
        self.shared_reads = 0
        self.shared_writes = 0
        #: Total clusters invalidated (regardless of delivery mechanism).
        self.invalidations_sent = 0
        self.broadcasts_used = 0
        #: Unicast INVALIDATE messages actually sent on the interconnect.
        self.unicast_invalidations = 0
        self.c2c_transfers = 0
        self.dirty_writebacks = 0
        #: Per invalidating write: delivery time of the slowest invalidation.
        self.invalidation_latency = RunningStats("invalidation-latency")
        #: Per cache-to-cache transfer: directory action to data arrival.
        self.c2c_latency = RunningStats("c2c-latency")

    @property
    def shared_requests(self) -> int:
        return self.shared_reads + self.shared_writes


class CoherenceEngine:
    """Directory consultation and coherence-action timing for the replay.

    One instance per :class:`~repro.core.system.SystemSimulator` run.  The
    engine owns one :class:`CoherenceController` directory per home cluster
    and borrows the simulator's interconnect, memory controllers and hub
    latencies; it never touches the event calendar itself.
    """

    __slots__ = (
        "config",
        "num_clusters",
        "network",
        "controllers",
        "hub_fwd",
        "broadcast_bus",
        "directories",
        "stats",
        "_msg_invalidate",
        "_msg_forward",
        "_msg_writeback",
    )

    def __init__(
        self,
        config: CoherenceConfig,
        num_clusters: int,
        network,
        controllers: Sequence,
        hub_fwd: Sequence[float],
        broadcast_bus: Optional[OpticalBroadcastBus] = None,
    ) -> None:
        self.config = config
        self.num_clusters = num_clusters
        self.network = network
        self.controllers = controllers
        self.hub_fwd = hub_fwd
        self.broadcast_bus = broadcast_bus
        threshold = (
            config.broadcast_threshold if broadcast_bus is not None else _NEVER_BROADCAST
        )
        self.directories: List[CoherenceController] = [
            CoherenceController(home_cluster=cluster, broadcast_threshold=threshold)
            for cluster in range(num_clusters)
        ]
        self.stats = CoherenceStats()
        # Reusable messages, mutated in place like the replay's own request/
        # response messages (the interconnects never retain them).
        self._msg_invalidate = Message(0, 1, MessageType.INVALIDATE)
        self._msg_forward = Message(0, 1, MessageType.COHERENCE)
        self._msg_writeback = Message(0, 1, MessageType.WRITEBACK)

    # ------------------------------------------------------------- protocol
    def process_miss(
        self,
        home: int,
        requester: int,
        is_write: bool,
        address: int,
        size_bytes: int,
        now: float,
    ) -> CoherentMiss:
        """Resolve the coherence activity of one shared miss arriving at its
        home cluster at ``now``; returns the timing the response stage needs.

        Takes the miss's fields as plain scalars (decoded by the replay from
        the packed meta word) rather than a record object, so the coherent
        path allocates nothing per miss either.
        """
        stats = self.stats
        config = self.config
        t_dir = now + config.directory_latency_s

        directory = self.directories[home]
        if is_write:
            stats.shared_writes += 1
            action = directory.handle_write(address, requester)
        else:
            stats.shared_reads += 1
            action = directory.handle_read(address, requester)

        extra_queueing = 0.0
        extra_hops = 0

        # -- invalidation fan-out ------------------------------------------
        inval_done = t_dir
        invalidated = action.invalidated_clusters
        if invalidated:
            stats.invalidations_sent += len(invalidated)
            if action.broadcast_messages:
                # One broadcast-bus message reaches every sharer at once.
                result = self.broadcast_bus.broadcast_invalidate(
                    src=home, sharers=len(invalidated), now=t_dir
                )
                inval_done = result.arrival_time
                stats.broadcasts_used += 1
            else:
                remote = [dst for dst in invalidated if dst != home]
                if remote:
                    message = self._msg_invalidate
                    message.src = home
                    result = self.network.multicast(message, remote, t_dir)
                    inval_done = result.last_arrival
                    stats.unicast_invalidations += result.messages
                    extra_hops += result.hops
            stats.invalidation_latency.add(inval_done - t_dir)

        # -- data supply ----------------------------------------------------
        supplier = action.data_from_owner
        writeback_time: Optional[float] = None
        if supplier is not None and supplier != requester:
            # Cache-to-cache: home forwards the request to the owner, the
            # owner reads its L2 and answers on the response leg.
            stats.c2c_transfers += 1
            if supplier == home:
                forward_arrival = t_dir
            else:
                forward = self._msg_forward
                forward.src = home
                forward.dst = supplier
                result = self.network.transfer(forward, t_dir)
                forward_arrival = result.arrival_time
                extra_queueing += result.queueing_delay
                extra_hops += result.hops
            data_ready = forward_arrival + config.owner_l2_latency_s
            response_src = supplier
            memory_queueing = 0.0
            memory_latency = 0.0
            carries_data = True
            is_c2c = True
            if is_write:
                # The stripped owner writes its dirty line back to home
                # memory, off the requester's critical path.
                wb_arrival = data_ready
                if supplier != home:
                    writeback = self._msg_writeback
                    writeback.src = supplier
                    writeback.dst = home
                    result = self.network.transfer(writeback, data_ready)
                    wb_arrival = result.arrival_time
                    extra_hops += result.hops
                writeback_time = wb_arrival
        elif action.data_from_memory:
            completion, memory_queueing, channel_delay, dram_delay = self.controllers[
                home
            ].access(t_dir, size_bytes, is_write, address)
            data_ready = completion
            response_src = home
            memory_latency = memory_queueing + channel_delay + dram_delay
            carries_data = not is_write
            is_c2c = False
        else:
            # Upgrade or silent refetch: the directory acknowledges without
            # moving data (any invalidations still gate the response).
            data_ready = t_dir
            response_src = home
            memory_queueing = 0.0
            memory_latency = 0.0
            carries_data = False
            is_c2c = False

        response_ready = data_ready if data_ready >= inval_done else inval_done
        return CoherentMiss(
            t_dir=t_dir,
            response_src=response_src,
            response_ready=response_ready,
            memory_queueing=memory_queueing,
            memory_latency=memory_latency,
            extra_queueing=extra_queueing,
            extra_hops=extra_hops,
            carries_data=carries_data,
            is_c2c=is_c2c,
            writeback_time=writeback_time,
        )

    def complete_writeback(
        self, home: int, size_bytes: int, address: int, now: float
    ) -> float:
        """Reserve the home memory controller for a dirty writeback at ``now``.

        Called from the calendar event the replay schedules at the writeback's
        arrival time so the memory reservation is made in global time order.
        Returns the writeback's completion time at the controller.
        """
        completion, _, _, _ = self.controllers[home].access(
            now, size_bytes, True, address
        )
        self.stats.dirty_writebacks += 1
        return completion

    def note_c2c_complete(self, miss: CoherentMiss, arrival: float) -> None:
        """Record the end-to-end latency of a cache-to-cache transfer."""
        self.stats.c2c_latency.add(arrival - miss.t_dir)

    # ------------------------------------------------------------- reporting
    def broadcast_occupancy(self, elapsed_s: float) -> float:
        """Fraction of the replay the broadcast bus spent modulating."""
        if self.broadcast_bus is None or elapsed_s <= 0:
            return 0.0
        return self.broadcast_bus.busy_seconds / elapsed_s
