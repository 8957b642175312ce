"""Power and area models (Sections 3.1-3.3 and Figure 11 of the Corona paper).

The paper's power story has four pieces, each reproduced here:

* :mod:`repro.power.electrical` -- electrical off-stack signalling
  (~2 mW/Gb/s), the ">160 W for an electrically connected 10 TB/s memory"
  claim; the meshes' 196 pJ per transaction per hop, behind Figure 11, is
  charged by the mesh model itself.
* :mod:`repro.power.optical` -- the photonic interconnect power budget: 39 W
  for the full photonic subsystem (laser + ring trimming + analog drive), of
  which the crossbar model charges 26 W of continuous power, and
  0.078 mW/Gb/s optical memory links totalling ~6.4 W.
* :mod:`repro.power.cacti` -- a simplified CACTI-style cache/directory energy
  and area model used for the L2/directory estimates.
* :mod:`repro.power.chip` -- the chip-level roll-up reproducing the paper's
  82-155 W processor power range and 423-491 mm^2 die area range.
"""

from repro.power.chip import corona_chip_power
from repro.power.electrical import electrical_memory_interconnect_power_w
from repro.power.optical import optical_memory_interconnect_power_w

__all__ = [
    "electrical_memory_interconnect_power_w",
    "optical_memory_interconnect_power_w",
    "corona_chip_power",
]
