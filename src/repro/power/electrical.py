"""Electrical interconnect power models.

Two electrical power figures drive the paper's comparison:

* the on-chip meshes dissipate **196 pJ per transaction per hop** (an
  aggressive low-swing estimate that ignores leakage), so their power grows
  linearly with traffic and hop count -- this is Figure 11's mesh curves.
  The replay charges it per transfer
  (:class:`~repro.network.mesh.ElectricalMesh`'s ``energy_per_hop_j``);
* off-stack electrical signalling costs about **2 mW/Gb/s** (Palmer et al.),
  which is why a 10 TB/s electrically connected memory would need over 160 W
  of interconnect power alone.
"""

from __future__ import annotations

from repro.memory.channel import ELECTRICAL_SIGNALLING_W_PER_GBPS


def electrical_memory_interconnect_power_w(
    memory_bandwidth_bytes_per_s: float,
    power_w_per_gbps: float = ELECTRICAL_SIGNALLING_W_PER_GBPS,
) -> float:
    """Interconnect power for an electrically signalled memory system.

    The paper's example: a 10 TB/s memory system at 2 mW/Gb/s would need over
    160 W just to move the bits.
    """
    if memory_bandwidth_bytes_per_s < 0:
        raise ValueError("bandwidth must be non-negative")
    gbps = memory_bandwidth_bytes_per_s * 8.0 / 1e9
    return power_w_per_gbps * gbps
