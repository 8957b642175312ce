"""Optically connected memory (OCM) -- Section 3.3 / Table 4.

Each of the 64 memory controllers drives a pair of single-waveguide,
64-wavelength DWDM fiber links, modulated on both clock edges, for 160 GB/s
per controller and 10.24 TB/s aggregate.  The links are half duplex and
master/slave: the controller schedules all traffic, so no arbitration is
needed.  Light is supplied from the chip stack; each outward fiber loops back
as the return fiber through a daisy chain of OCM modules, and because modules
pass light through without retiming, expansion adds negligible latency and
power.

Those numbers are the paper's design point; the model reads them from a
:class:`~repro.core.config.CoronaConfig` (``num_clusters``,
``memory_links_per_controller``, ``memory_wavelengths_per_link``,
``signalling_rate_bps`` and ``memory_latency_s``), so the replayed links,
Table 4 and the power roll-up all follow an override of any of them.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict

from repro.memory.channel import OpticalMemoryChannel
from repro.memory.system import MemorySystem

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig


def OpticallyConnectedMemory(config: "CoronaConfig") -> MemorySystem:
    """Build the OCM memory system of ``config`` (Table 4: 160 GB/s per
    controller, 20 ns DRAM latency)."""
    return MemorySystem(config, "OCM", partial(OpticalMemoryChannel, config))


def ocm_interconnect_summary(config: "CoronaConfig") -> Dict[str, object]:
    """The OCM column of Table 4, derived from the channel model."""
    channel = OpticalMemoryChannel(config, "ocm-summary")
    controllers = config.num_clusters
    total_bandwidth = controllers * channel.bandwidth_bytes_per_s
    # Each controller's fiber links are loops (the outbound fiber returns as
    # the inbound fiber): two fiber ends per link, 4 per controller and 256
    # chip-wide in the paper's design.
    fibers = controllers * config.memory_links_per_controller * 2
    return {
        "Memory controllers": controllers,
        "External connectivity": f"{fibers} fibers",
        "Channel width": f"{channel.width_bits} b half duplex",
        "Channel data rate": f"{channel.data_rate_bps / 1e9:g} Gb/s",
        "Memory bandwidth (TB/s)": total_bandwidth / 1e12,
        "Memory latency (ns)": config.memory_latency_s * 1e9,
        "Interconnect power (W)": controllers * channel.interconnect_power_w,
        "Interconnect power (mW/Gb/s)": channel.interconnect_power_w_per_gbps * 1e3,
    }
