"""Photonic interconnect power models.

The paper's optical power figures:

* the complete on-stack photonic subsystem (laser power delivered to the
  photonic die, ring trimming/heating and the analog drive circuitry)
  dissipates about **39 W**;
* of that, the crossbar's share charged against the on-chip network budget is
  a **26 W continuous** draw (Section 4), constant because laser and trimming
  power do not scale down with traffic
  (:data:`repro.network.crossbar.STATIC_POWER_W`);
* optically connected memory signalling costs about **0.078 mW/Gb/s**, so the
  10 TB/s OCM interconnect needs only **~6.4 W**.
"""

from __future__ import annotations

from repro.memory.channel import OPTICAL_SIGNALLING_W_PER_GBPS

#: Total photonic interconnect power (laser + trimming + analog layer).
PHOTONIC_SUBSYSTEM_POWER_W = 39.0


def optical_memory_interconnect_power_w(
    memory_bandwidth_bytes_per_s: float,
) -> float:
    """Interconnect power for the OCM memory system (~6.4 W at 10.24 TB/s)."""
    if memory_bandwidth_bytes_per_s < 0:
        raise ValueError("bandwidth must be non-negative")
    gbps = memory_bandwidth_bytes_per_s * 8.0 / 1e9
    return OPTICAL_SIGNALLING_W_PER_GBPS * gbps
