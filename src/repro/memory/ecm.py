"""Electrically connected memory (ECM) -- the baseline of Table 4.

The ECM is the best the ITRS roadmap allows with electrical pins: 64
controllers, each with a 12-bit full-duplex channel at 10 Gb/s per pin
(1536 pins chip-wide), i.e. 15 GB/s of read bandwidth per controller and
0.96 TB/s aggregate, at the same 20 ns latency and roughly 2 mW/Gb/s of
interconnect power (the paper's figure from Palmer et al. [25]).
"""

from __future__ import annotations

from typing import Dict

from repro.memory.channel import ElectricalMemoryChannel
from repro.memory.dram import DramTimings
from repro.memory.system import MemorySystem


def ElectricallyConnectedMemory(
    num_controllers: int = 64, memory_latency_s: float = 20e-9
) -> MemorySystem:
    """Build the paper's ECM memory system (Table 4: 20 ns DRAM latency)."""
    return MemorySystem(
        name="ECM",
        channel_factory=ElectricalMemoryChannel,
        num_controllers=num_controllers,
        dram_timings=DramTimings(access_latency_s=memory_latency_s),
    )


def ecm_interconnect_summary(num_controllers: int = 64) -> Dict[str, object]:
    """The ECM column of Table 4, derived from the channel model."""
    channel = ElectricalMemoryChannel("ecm-summary")
    # Table 4 quotes the usable (per-direction) memory bandwidth.
    total_bandwidth = num_controllers * channel.bandwidth_bytes_per_s
    # 12 bits in each direction -> 24 signal pins per channel, 1536 chip-wide.
    pins = num_controllers * channel.width_bits * 2
    return {
        "Memory controllers": num_controllers,
        "External connectivity": f"{pins} pins",
        "Channel width": "12 b full duplex",
        "Channel data rate": "10 Gb/s",
        "Memory bandwidth (TB/s)": total_bandwidth / 1e12,
        "Memory latency (ns)": 20.0,
        "Interconnect power (W)": num_controllers * channel.interconnect_power_w,
        "Interconnect power (mW/Gb/s)": channel.interconnect_power_w_per_gbps * 1e3,
    }
