"""Electrically connected memory (ECM) -- the baseline of Table 4.

The ECM is the best the ITRS roadmap allows with electrical pins: 64
controllers, each with a 12-bit full-duplex channel at 10 Gb/s per pin
(1536 pins chip-wide), i.e. 15 GB/s of read bandwidth per controller and
0.96 TB/s aggregate, at the same 20 ns latency and roughly 2 mW/Gb/s of
interconnect power (the paper's figure from Palmer et al. [25]).

The controller count and the DRAM latency come from a
:class:`~repro.core.config.CoronaConfig` (``num_clusters``,
``memory_latency_s``); the pins are constants of the baseline
(:data:`~repro.memory.channel.ECM_WIDTH_BITS`,
:data:`~repro.memory.channel.ECM_DATA_RATE_BPS`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.memory.channel import ElectricalMemoryChannel
from repro.memory.system import MemorySystem

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig


def ElectricallyConnectedMemory(config: "CoronaConfig") -> MemorySystem:
    """Build the ECM memory system of ``config`` (Table 4: 15 GB/s per
    controller, 20 ns DRAM latency)."""
    return MemorySystem(config, "ECM", ElectricalMemoryChannel)


def ecm_interconnect_summary(config: "CoronaConfig") -> Dict[str, object]:
    """The ECM column of Table 4, derived from the channel model."""
    channel = ElectricalMemoryChannel("ecm-summary")
    controllers = config.num_clusters
    # Table 4 quotes the usable (per-direction) memory bandwidth.
    total_bandwidth = controllers * channel.bandwidth_bytes_per_s
    # 12 bits in each direction -> 24 signal pins per channel, 1536 chip-wide.
    pins = controllers * channel.width_bits * 2
    return {
        "Memory controllers": controllers,
        "External connectivity": f"{pins} pins",
        "Channel width": f"{channel.width_bits} b full duplex",
        "Channel data rate": f"{channel.data_rate_bps / 1e9:g} Gb/s",
        "Memory bandwidth (TB/s)": total_bandwidth / 1e12,
        "Memory latency (ns)": config.memory_latency_s * 1e9,
        "Interconnect power (W)": controllers * channel.interconnect_power_w,
        "Interconnect power (mW/Gb/s)": channel.interconnect_power_w_per_gbps * 1e3,
    }
