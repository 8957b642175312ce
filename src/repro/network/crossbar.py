"""Corona's optical crossbar (Section 3.2.1 of the paper).

The crossbar is 64 *many-writer, single-reader* channels: channel ``d`` can be
written by any cluster but is only read by cluster ``d`` (its home).  Each
channel is 256 wavelengths wide (a 4-waveguide bundle of 64-wavelength combs),
modulated on both edges of the 5 GHz clock, so one channel carries 2.56 Tb/s
(320 GB/s) and a 64-byte cache line crosses in a single clock.  The 64
channels together provide 20 TB/s of aggregate bandwidth.  The waveguide
bundle of channel ``d`` originates at cluster ``d``, serpentines past every
other cluster and terminates back at ``d``, so a message modulated by cluster
``s`` propagates ``(d - s) mod 64`` / 64 of the ring, at most 8 clocks.

Exclusive access to a channel is granted by the optical token arbitration of
:mod:`repro.network.arbitration`: only the token holder modulates, the token
is re-injected alongside the tail of the message, and the next holder's light
follows immediately behind -- which is why several messages can be in flight
on the same bundle at once.  Each transfer acquires and releases its
channel's :class:`~repro.network.arbitration.TokenChannelArbiter`, the same
arbiter that guards the broadcast bus.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.network.arbitration import TokenRingArbiter
from repro.network.message import Message
from repro.network.topology import Interconnect, TransferResult

#: Continuous crossbar power (laser, ring trimming and clocking) charged
#: against the on-chip network in the paper's evaluation (Section 4): 26 W,
#: constant because that power does not scale down with traffic.
STATIC_POWER_W = 26.0


class OpticalCrossbar(Interconnect):
    """The Corona DWDM crossbar with optical token arbitration."""

    __slots__ = (
        "channel_bandwidth_bytes_per_s",
        "max_propagation_s",
        "energy_per_bit_j",
        "arbiter",
        "channel_bytes",
        "_fault_channel_bw",
    )

    def __init__(
        self,
        num_clusters: int = 64,
        clock_hz: float = 5e9,
        channel_bandwidth_bytes_per_s: float = 320e9,
        max_propagation_cycles: float = 8.0,
        ring_round_trip_cycles: float = 8.0,
        energy_per_bit_j: float = 100e-15,
        name: str = "XBar",
    ) -> None:
        super().__init__(name=name, num_clusters=num_clusters, clock_hz=clock_hz)
        if channel_bandwidth_bytes_per_s <= 0:
            raise ValueError("channel bandwidth must be positive")
        self.channel_bandwidth_bytes_per_s = channel_bandwidth_bytes_per_s
        self.max_propagation_s = max_propagation_cycles / clock_hz
        self.energy_per_bit_j = energy_per_bit_j
        self.arbiter = TokenRingArbiter(
            num_clusters=num_clusters,
            num_channels=num_clusters,
            clock_hz=clock_hz,
            ring_round_trip_cycles=ring_round_trip_cycles,
        )
        #: Bytes delivered to each home, per channel.
        self.channel_bytes: Dict[int, float] = {c: 0.0 for c in range(num_clusters)}
        #: Fault injection hook (:mod:`repro.faults.inject`): a per-channel
        #: bandwidth table replacing the uniform channel bandwidth when rings
        #: are detuned or a bundle is partially dead.  ``None`` on fault-free
        #: builds, so the transfer hot path pays one ``is None`` check and
        #: computes bit-identical results.  Token loss hooks into the
        #: channel arbiters (``TokenChannelArbiter.token_loss``).
        self._fault_channel_bw: Optional[list] = None

    # -- Interconnect interface ---------------------------------------------
    def static_power_w(self) -> float:
        """Laser, ring-trimming and clocking power; constant by construction."""
        return STATIC_POWER_W

    def transfer(self, message: Message, now: float) -> TransferResult:
        src = message.src
        channel = message.dst
        if src >= self.num_clusters or channel >= self.num_clusters:
            raise ValueError(
                f"message endpoints {src}->{channel} outside crossbar"
            )
        if src == channel:
            result = TransferResult(now, 0.0, 0.0, 0.0, 0, 0.0)
            self.record_transfer(message, result)
            return result

        size = message.size_bytes
        channel_arbiter = self.arbiter.channels[channel]
        grant_time = channel_arbiter.acquire(src, now)
        fault_bw = self._fault_channel_bw
        serialization = size / (
            fault_bw[channel]
            if fault_bw is not None
            else self.channel_bandwidth_bytes_per_s
        )
        modulation_done = grant_time + serialization
        # The token is re-injected with the tail of the message.
        channel_arbiter.release(src, modulation_done)
        # Serpentine flight time from the modulating cluster to the home.
        propagation = (
            self.max_propagation_s * ((channel - src) % self.num_clusters)
            / self.num_clusters
        )
        arrival = modulation_done + propagation

        energy = size * 8.0 * self.energy_per_bit_j
        self.channel_bytes[channel] += size
        # record_transfer, inlined.
        self.messages_sent += 1
        self.bytes_sent += size
        self.total_dynamic_energy_j += energy

        # TransferResult's fields, built without its generated __new__.
        return tuple.__new__(
            TransferResult,
            (arrival, grant_time - now, serialization, propagation, 0, energy),
        )

    # -- reporting ------------------------------------------------------------
    def busiest_channels(self, count: int = 5) -> list[tuple[int, float]]:
        ordered = sorted(
            self.channel_bytes.items(), key=lambda item: item[1], reverse=True
        )
        return ordered[:count]
