"""Optical broadcast bus (Section 3.2.2 of the Corona paper).

The MOESI protocol occasionally needs to invalidate a block cached by many
sharers.  Doing that over a unicast crossbar would turn one logical multicast
into up to 63 unicast messages; Corona instead adds a single-waveguide
broadcast bus that spirals past every cluster twice.  On the first pass a
cluster (the one holding the bus token) modulates invalidate messages onto the
light; on the second pass every cluster taps a fraction of the light with a
broadband splitter and reads the message, snooping its caches.

The bus is a single shared channel arbitrated by one token (one extra
wavelength on the arbitration waveguide), one waveguide's comb wide (64
wavelengths in the paper's design).  It is built from a
:class:`~repro.core.config.CoronaConfig`: the cluster count and clock
(``num_clusters``, ``core.frequency_hz``), the comb width
(``crossbar_wavelengths_per_waveguide``), the per-wavelength rate
(``signalling_rate_bps``) and the token ring's round trip
(``token_ring_round_trip_cycles``).  The coil's round trip, the splitter
taps' excess loss and the energy per bit are constants of the design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.network.arbitration import TokenChannelArbiter
from repro.network.crossbar import ENERGY_PER_BIT_J
from repro.network.message import Message, MessageType
from repro.network.topology import Interconnect, TransferResult
from repro.photonics.splitter import splitter_chain_losses

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig

#: Clocks for light to traverse the two-pass coil end to end.
COIL_ROUND_TRIP_CYCLES = 16.0
#: Excess loss of each listener's broadband splitter tap.
TAP_EXCESS_LOSS_DB = 0.1


class OpticalBroadcastBus(Interconnect):
    """A single-channel, all-cluster optical broadcast bus."""

    def __init__(self, config: "CoronaConfig") -> None:
        clock_hz = config.clock_hz
        super().__init__(
            name="BroadcastBus", num_clusters=config.num_clusters, clock_hz=clock_hz
        )
        self.bandwidth_bytes_per_s = (
            config.crossbar_wavelengths_per_waveguide * config.signalling_rate_bps / 8.0
        )
        self.coil_round_trip_s = COIL_ROUND_TRIP_CYCLES / clock_hz
        self.energy_per_bit_j = ENERGY_PER_BIT_J
        self.arbiter = TokenChannelArbiter(
            channel_id=0,
            num_clusters=config.num_clusters,
            ring_round_trip_s=config.token_ring_round_trip_cycles / clock_hz,
        )
        self.broadcasts_sent = 0
        self.unicast_messages_avoided = 0
        #: Seconds the single shared channel spent modulating messages; the
        #: basis of ``CoherenceEngine.broadcast_occupancy``.
        self.busy_seconds = 0.0

    def serialization_delay_s(self, size_bytes: float) -> float:
        return size_bytes / self.bandwidth_bytes_per_s

    def transfer(self, message: Message, now: float) -> TransferResult:
        """Broadcast ``message`` from its source to *all* clusters.

        ``message.dst`` is ignored for delivery (every cluster receives the
        message on the coil's second pass); the arrival time reported is that
        of the last cluster to receive it.
        """
        grant_time = self.arbiter.acquire(message.src, now)
        serialization = self.serialization_delay_s(message.size_bytes)
        modulation_done = grant_time + serialization
        self.arbiter.release(message.src, modulation_done)
        # The message becomes visible to readers on the second pass of the
        # coil; the last reader sees it after the full coil traversal.
        arrival = modulation_done + self.coil_round_trip_s

        energy = message.size_bytes * 8.0 * self.energy_per_bit_j
        self.broadcasts_sent += 1
        self.busy_seconds += serialization

        result = TransferResult(
            arrival_time=arrival,
            queueing_delay=grant_time - now,
            serialization_delay=serialization,
            propagation_delay=self.coil_round_trip_s,
            hops=0,
            dynamic_energy_j=energy,
        )
        self.record_transfer(message, result)
        return result

    def broadcast_invalidate(self, src: int, sharers: int, now: float) -> TransferResult:
        """Send one invalidate that reaches ``sharers`` caches in one message.

        Tracks how many unicast messages a crossbar-only design would have
        needed, which is the benefit Section 3.2.2 argues for.
        """
        if sharers < 0:
            raise ValueError(f"sharer count must be non-negative, got {sharers}")
        message = Message(src=src, dst=src, message_type=MessageType.INVALIDATE)
        self.unicast_messages_avoided += max(sharers - 1, 0)
        return self.transfer(message, now)

    def listener_losses_db(self) -> List[float]:
        """Optical loss seen by each listening cluster's splitter tap.

        Exposes the broadcast bus's main physical-design challenge: the light
        is divided among 64 listeners, so the last taps see substantially less
        power than the first unless tap fractions are graded.
        """
        return splitter_chain_losses(
            num_taps=self.num_clusters, excess_loss_db=TAP_EXCESS_LOSS_DB
        )
