"""Off-stack memory system models (Section 3.3 / Table 4 of the Corona paper).

Two memory interconnects are modelled:

* :class:`~repro.memory.ocm.OpticallyConnectedMemory` -- Corona's OCM: each of
  the 64 memory controllers drives a pair of 64-wavelength DWDM fiber links to
  a daisy chain of 3D-stacked OCM modules, providing 160 GB/s per controller
  (10.24 TB/s aggregate) at 20 ns access latency and ~0.078 mW/Gb/s of
  interconnect power.
* :class:`~repro.memory.ecm.ElectricallyConnectedMemory` -- the electrical
  baseline the ITRS roadmap allows: 12-bit full-duplex channels at 10 Gb/s per
  pin, 0.96 TB/s aggregate, the same 20 ns latency, at ~2 mW/Gb/s.

Both are built on the same substrate: a DRAM mat/bank timing model
(:mod:`repro.memory.dram`), per-controller channels
(:mod:`repro.memory.channel`) and memory controllers with finite queues
(:mod:`repro.memory.controller`).
"""

from repro.memory.channel import ElectricalMemoryChannel, OpticalMemoryChannel
from repro.memory.controller import MemoryController
from repro.memory.ecm import ElectricallyConnectedMemory, ecm_interconnect_summary
from repro.memory.ocm import OpticallyConnectedMemory, ocm_interconnect_summary
from repro.memory.system import MemorySystem

__all__ = [
    "OpticalMemoryChannel",
    "ElectricalMemoryChannel",
    "MemoryController",
    "MemorySystem",
    "OpticallyConnectedMemory",
    "ElectricallyConnectedMemory",
    "ocm_interconnect_summary",
    "ecm_interconnect_summary",
]
