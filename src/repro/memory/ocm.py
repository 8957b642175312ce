"""Optically connected memory (OCM) -- Section 3.3 / Table 4.

Each of the 64 memory controllers drives a pair of single-waveguide,
64-wavelength DWDM fiber links, modulated on both clock edges, for 160 GB/s
per controller and 10.24 TB/s aggregate.  The links are half duplex and
master/slave: the controller schedules all traffic, so no arbitration is
needed.  Light is supplied from the chip stack; each outward fiber loops back
as the return fiber through a daisy chain of OCM modules, and because modules
pass light through without retiming, expansion adds negligible latency and
power.
"""

from __future__ import annotations

from typing import Dict

from repro.memory.channel import OpticalMemoryChannel
from repro.memory.dram import DramTimings
from repro.memory.system import MemorySystem


def OpticallyConnectedMemory(
    num_controllers: int = 64, memory_latency_s: float = 20e-9
) -> MemorySystem:
    """Build the paper's OCM memory system (Table 4: 20 ns DRAM latency)."""
    return MemorySystem(
        name="OCM",
        channel_factory=OpticalMemoryChannel,
        num_controllers=num_controllers,
        dram_timings=DramTimings(access_latency_s=memory_latency_s),
    )


def ocm_interconnect_summary(num_controllers: int = 64) -> Dict[str, object]:
    """The OCM column of Table 4, derived from the channel model."""
    channel = OpticalMemoryChannel("ocm-summary")
    total_bandwidth = num_controllers * channel.bandwidth_bytes_per_s
    # Each controller uses a pair of fiber links, each of which is a loop
    # (outbound fiber returning as the inbound fiber): 4 fiber ends per
    # controller -> 256 fibers chip-wide.
    fibers = num_controllers * 4
    return {
        "Memory controllers": num_controllers,
        "External connectivity": f"{fibers} fibers",
        "Channel width": "128 b half duplex",
        "Channel data rate": "10 Gb/s",
        "Memory bandwidth (TB/s)": total_bandwidth / 1e12,
        "Memory latency (ns)": 20.0,
        "Interconnect power (W)": num_controllers * channel.interconnect_power_w,
        "Interconnect power (mW/Gb/s)": channel.interconnect_power_w_per_gbps * 1e3,
    }
