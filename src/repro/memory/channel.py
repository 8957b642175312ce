"""Memory-controller-to-memory channel models (Table 4 of the Corona paper).

================  =====================  =====================
Resource          OCM                    ECM
================  =====================  =====================
Controllers       64                     64
Connectivity      256 fibers             1536 pins
Channel width     128 b half duplex      12 b full duplex
Channel data rate 10 Gb/s                10 Gb/s
Bandwidth         10.24 TB/s             0.96 TB/s
Latency           20 ns                  20 ns
Power             ~0.078 mW/Gb/s         ~2 mW/Gb/s
================  =====================  =====================

A channel serializes request and response traffic between one memory
controller and its memory devices; contention for the channel is what caps a
cluster's achievable memory bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.resources import SerialResource

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig

#: Off-stack signalling power per Gb/s of peak bandwidth, the paper's figure
#: of merit for memory-link power: optical (OCM) and electrical (ECM, Palmer
#: et al. [25]).
OPTICAL_SIGNALLING_W_PER_GBPS = 0.078e-3
ELECTRICAL_SIGNALLING_W_PER_GBPS = 2e-3

#: Flight latency of an OCM or ECM channel, included in every access.
CHANNEL_LATENCY_S = 1e-9


@dataclass
class MemoryChannel:
    """A memory controller's external channel: one serial resource that
    carries commands, write data and read data in turn.

    Parameters
    ----------
    name:
        Identifier for reporting.
    width_bits:
        Signalling width in bits.
    data_rate_bps:
        Per-signal data rate (10 Gb/s in both designs).
    latency_s:
        Flight latency of the channel (included in the memory access latency;
        :data:`CHANNEL_LATENCY_S` in both designs).
    interconnect_power_w_per_gbps:
        Interconnect power per Gb/s of peak signalling bandwidth
        (:data:`OPTICAL_SIGNALLING_W_PER_GBPS` or
        :data:`ELECTRICAL_SIGNALLING_W_PER_GBPS`).
    """

    name: str
    width_bits: int
    data_rate_bps: float
    latency_s: float
    interconnect_power_w_per_gbps: float
    #: The serial resource a :class:`~repro.memory.controller.MemoryController`
    #: reserves for every transfer over this channel.
    resource: SerialResource = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.width_bits < 1:
            raise ValueError(f"width must be >= 1 bit, got {self.width_bits}")
        if self.data_rate_bps <= 0:
            raise ValueError(f"data rate must be positive, got {self.data_rate_bps}")
        self.resource = SerialResource(name=self.name)

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Peak bandwidth of the channel."""
        return self.width_bits * self.data_rate_bps / 8.0

    @property
    def interconnect_power_w(self) -> float:
        """Interconnect power at the paper's per-Gb/s figure of merit."""
        return (
            self.width_bits * self.data_rate_bps / 1e9
            * self.interconnect_power_w_per_gbps
        )


def OpticalMemoryChannel(config: "CoronaConfig", name: str) -> MemoryChannel:
    """One controller's OCM links: ``memory_links_per_controller`` fibers of
    ``memory_wavelengths_per_link`` wavelengths, half duplex at
    ``signalling_rate_bps`` (Table 4: 2 x 64 at 10 Gb/s, 160 GB/s).  Its
    bandwidth multiplies in the order ``CoronaConfig`` does, so the two
    agree to the bit."""
    return MemoryChannel(
        name=name,
        width_bits=config.memory_links_per_controller * config.memory_wavelengths_per_link,
        data_rate_bps=config.signalling_rate_bps,
        latency_s=CHANNEL_LATENCY_S,
        interconnect_power_w_per_gbps=OPTICAL_SIGNALLING_W_PER_GBPS,
    )


#: Table 4's ECM pins: 12 signal bits per direction at 10 Gb/s per pin.
ECM_WIDTH_BITS = 12
ECM_DATA_RATE_BPS = 10e9


def ElectricalMemoryChannel(name: str) -> MemoryChannel:
    """One ECM channel: :data:`ECM_WIDTH_BITS` signal bits per direction at
    :data:`ECM_DATA_RATE_BPS`.

    The serial link itself is full duplex (12 bits each way, 24 pins per
    controller), but the DRAM data bus behind it is shared between reads and
    writes, so the channel is modelled as a single 15 GB/s serialization
    resource -- which is exactly the 0.96 TB/s aggregate memory bandwidth of
    Table 4.
    """
    return MemoryChannel(
        name=name,
        width_bits=ECM_WIDTH_BITS,
        data_rate_bps=ECM_DATA_RATE_BPS,
        latency_s=CHANNEL_LATENCY_S,
        interconnect_power_w_per_gbps=ELECTRICAL_SIGNALLING_W_PER_GBPS,
    )
