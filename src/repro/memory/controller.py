"""Memory controller model.

One controller per cluster (Table 1): it owns the cluster's slice of physical
memory, schedules accesses over its external channel, and enforces a finite
request queue so that saturated controllers push back on the interconnect --
the effect that dominates the Hot Spot results in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.memory.channel import MemoryChannel
from repro.memory.dram import OcmModule
from repro.sim.resources import BoundedQueue, SerialResource

#: Bytes of command/address overhead sent to memory per access (the command
#: itself is small; most command signalling travels on dedicated wavelengths
#: or pins and does not consume data-channel bandwidth).
COMMAND_BYTES = 8

#: Request-queue capacity of every controller, OCM and ECM alike.
QUEUE_DEPTH = 64


class MemoryAccessResult(NamedTuple):
    """Outcome of one memory access at a controller.

    A NamedTuple (not a dataclass): one is built per replayed miss, so cheap
    construction matters; :meth:`MemoryController.access` builds it with
    ``tuple.__new__``, skipping the generated ``__new__``'s Python frame.
    """

    completion_time: float
    queueing_delay: float
    channel_delay: float
    dram_delay: float

    @property
    def memory_latency(self) -> float:
        return self.queueing_delay + self.channel_delay + self.dram_delay


@dataclass(slots=True)
class MemoryController:
    """A per-cluster memory controller.

    Parameters
    ----------
    controller_id:
        The cluster this controller belongs to.
    channel:
        External channel (optical or electrical).
    module:
        The OCM module behind the channel (or the equivalent DRAM behind an
        ECM channel).

    The request queue holds :data:`QUEUE_DEPTH` accesses; overflowing
    requests wait, creating back-pressure into the hub.  The DRAM access
    latency (Table 4: 20 ns for both designs) and bank occupancy come from
    the module's :class:`~repro.memory.dram.DramTimings`.
    """

    controller_id: int
    channel: MemoryChannel
    module: OcmModule
    queue: BoundedQueue = field(init=False, repr=False)
    reads: int = field(default=0, repr=False)
    writes: int = field(default=0, repr=False)
    bytes_transferred: float = field(default=0.0, repr=False)
    #: Fault injection hook (:mod:`repro.faults.inject`): called as
    #: ``fault_dram(controller_id, access_index)`` and returns extra DRAM
    #: latency for transient-timeout retries.  ``None`` on fault-free builds,
    #: so the access hot path pays one ``is None`` check.
    fault_dram: object = field(default=None, repr=False)
    _channel_resource: SerialResource = field(init=False, repr=False)
    _channel_latency_s: float = field(init=False, repr=False)
    _bytes_per_s: float = field(init=False, repr=False)
    _command_serialization_s: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.queue = BoundedQueue(
            name=f"mc{self.controller_id}-queue", capacity=QUEUE_DEPTH
        )
        # Hot-path bindings: the channel's serial resource and serialization
        # constants, resolved once instead of per access.
        self._channel_resource = self.channel.resource
        self._channel_latency_s = self.channel.latency_s
        self._bytes_per_s = self.channel.bandwidth_bytes_per_s
        self._command_serialization_s = COMMAND_BYTES / self._bytes_per_s

    # -- the access path ------------------------------------------------------
    def access(
        self,
        now: float,
        size_bytes: int,
        is_write: bool,
        address: int = 0,
    ) -> MemoryAccessResult:
        """Perform one memory access arriving at the controller at ``now``."""
        if size_bytes <= 0:
            raise ValueError(f"access size must be positive, got {size_bytes}")

        # Finite controller queue: requests that arrive while the queue is
        # full are admitted only when an earlier request departs.
        heaps = self.queue.heaps
        admit_estimate = heaps.admission(now)
        queue_wait = admit_estimate - now
        start = admit_estimate

        # Channel: command goes out, then either the write data goes out or
        # the read data comes back, all on the channel's one serial resource.
        channel = self._channel_resource
        channel_latency = self._channel_latency_s
        if is_write:
            channel_done = (
                channel.reserve(
                    start, (COMMAND_BYTES + size_bytes) / self._bytes_per_s
                )
                + channel_latency
            )
        else:
            channel_done = (
                channel.reserve(start, self._command_serialization_s)
                + channel_latency
            )

        # DRAM access behind the channel.
        data_ready = self.module.access(address, channel_done)
        if self.fault_dram is not None:
            # Transient timeout: the access is retried after the configured
            # latency.  Keyed by the deterministic access counter (reads +
            # writes, pre-increment), so the schedule is order-independent.
            data_ready += self.fault_dram(
                self.controller_id, self.reads + self.writes
            )

        if is_write:
            completion = data_ready
        else:
            # Read data returns over the channel.
            completion = (
                channel.reserve(data_ready, size_bytes / self._bytes_per_s)
                + channel_latency
            )

        # Register the stay in the queue; the admission estimate above already
        # accounted for back-pressure, so the entry is committed directly.
        heaps.push(completion)

        channel_delay = (channel_done - start) + (
            (completion - data_ready) if not is_write else 0.0
        )
        dram_delay = data_ready - channel_done

        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_transferred += size_bytes

        # MemoryAccessResult's fields, built without its generated __new__.
        return tuple.__new__(
            MemoryAccessResult, (completion, queue_wait, channel_delay, dram_delay)
        )
