"""On-stack interconnect models (Section 3.2 of the Corona paper).

Three interconnects are modelled, matching the paper's evaluation:

* :class:`~repro.network.crossbar.OpticalCrossbar` -- Corona's DWDM crossbar:
  64 many-writer single-reader channels, each 256 wavelengths wide, managed by
  distributed optical token arbitration, with an optical broadcast bus on the
  side for invalidations.
* :class:`~repro.network.mesh.ElectricalMesh` -- the HMesh and LMesh electrical
  baselines: 8x8 2D meshes with dimension-order wormhole routing.  Only link
  contention is modelled, one serial resource per directed link; routers have
  no finite buffers and exert no back-pressure.

All interconnects implement the :class:`~repro.network.topology.Interconnect`
interface so the system simulator can swap them freely, and each is built
from the :class:`~repro.core.config.CoronaConfig` it models
(``OpticalCrossbar(config)``, ``OpticalBroadcastBus(config)``,
``high_performance_mesh(config)``, ``low_performance_mesh(config)``): no
constructor restates the design point in a default.  No module here imports
:mod:`repro.core` at run time, because its package init loads the replay,
which imports this package.
"""

from repro.network.broadcast import OpticalBroadcastBus
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import ElectricalMesh, high_performance_mesh, low_performance_mesh
from repro.network.message import Message, MessageType
from repro.network.topology import Interconnect, TransferResult

__all__ = [
    "Message",
    "MessageType",
    "Interconnect",
    "TransferResult",
    "ElectricalMesh",
    "high_performance_mesh",
    "low_performance_mesh",
    "OpticalCrossbar",
    "OpticalBroadcastBus",
]
