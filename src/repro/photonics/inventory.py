"""Optical resource inventory (Table 2 of the Corona paper).

The table counts waveguides and ring resonators per photonic subsystem:

==========  ==========  ===============
Subsystem   Waveguides  Ring resonators
==========  ==========  ===============
Memory      128         16 K
Crossbar    256         1024 K
Broadcast   1           8 K
Arbitration 2           8 K
Clock       1           64
Total       388         ~1056 K
==========  ==========  ===============

This module derives those counts from a
:class:`~repro.core.config.CoronaConfig` (64 clusters, 64-wavelength combs,
4-waveguide crossbar bundles, one memory controller per cluster with a
two-fiber link), so the inventory scales correctly when the architecture is
re-parameterized.  The broadcast, arbitration and clock waveguide counts are
fixed by the design, whatever the cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig

#: Table 2's waveguide counts of the broadcast bus (Section 3.2.2), the
#: token arbitration and the clock distribution.
BROADCAST_WAVEGUIDES = 1
ARBITRATION_WAVEGUIDES = 2
CLOCK_WAVEGUIDES = 1


@dataclass(frozen=True)
class SubsystemInventory:
    """Waveguide and ring counts for one photonic subsystem."""

    name: str
    waveguides: int
    ring_resonators: int

    def __post_init__(self) -> None:
        if self.waveguides < 0 or self.ring_resonators < 0:
            raise ValueError("inventory counts must be non-negative")


@dataclass
class OpticalResourceInventory:
    """Full-chip optical resource inventory."""

    subsystems: List[SubsystemInventory] = field(default_factory=list)

    def add(self, name: str, waveguides: int, ring_resonators: int) -> None:
        self.subsystems.append(
            SubsystemInventory(
                name=name, waveguides=waveguides, ring_resonators=ring_resonators
            )
        )

    @property
    def total_waveguides(self) -> int:
        return sum(s.waveguides for s in self.subsystems)

    @property
    def total_ring_resonators(self) -> int:
        return sum(s.ring_resonators for s in self.subsystems)

    def by_name(self) -> Dict[str, SubsystemInventory]:
        return {s.name: s for s in self.subsystems}

    def as_rows(self) -> List[tuple]:
        """Rows in the same layout as Table 2 of the paper."""
        rows = [
            (s.name, s.waveguides, s.ring_resonators) for s in self.subsystems
        ]
        rows.append(("Total", self.total_waveguides, self.total_ring_resonators))
        return rows

    def report(self) -> str:
        lines = [
            "Photonic Subsystem    Waveguides   Ring Resonators",
            "-" * 52,
        ]
        for name, guides, rings in self.as_rows():
            lines.append(f"{name:<20}  {guides:>10}   {rings:>15,}")
        return "\n".join(lines)


def corona_inventory(config: "CoronaConfig") -> OpticalResourceInventory:
    """Derive the Table 2 inventory from ``config``.

    Ring counting rules (per the paper's component descriptions):

    * **Crossbar**: each of the ``num_clusters`` channels is a bundle of
      ``crossbar_waveguides_per_channel`` waveguides carrying
      ``crossbar_wavelengths_per_waveguide`` wavelengths each.  Every
      cluster sits on every channel with a full-width ring bank (modulators
      on the 63 channels it may write, detectors on its own channel), so
      the ring count is ``clusters * clusters * channel_width``.
    * **Memory**: each cluster's memory controller drives
      ``memory_links_per_controller`` waveguides/fibers, with a modulator
      bank on the outbound fiber and a detector bank on the return fiber.
    * **Broadcast**: a single waveguide passing every cluster twice; each
      cluster has a modulator bank (first pass) and a detector bank (second
      pass).
    * **Arbitration**: one wavelength per crossbar channel plus one for the
      broadcast bus; each cluster carries an injector bank and a detector
      bank.
    * **Clock**: one detector ring per cluster on the clock waveguide.
    """
    clusters = config.num_clusters
    wavelengths_per_waveguide = config.crossbar_wavelengths_per_waveguide
    memory_waveguides_per_controller = config.memory_links_per_controller

    inventory = OpticalResourceInventory()

    # Each controller drives two half-duplex fiber links; on each link it
    # needs both a modulator bank (to transmit) and a detector bank (to
    # receive the OCM's modulated return light): 2 links x 64 wavelengths x 2
    # banks = 256 rings per cluster, 16 K chip-wide.
    memory_rings = (
        clusters * memory_waveguides_per_controller * wavelengths_per_waveguide * 2
    )
    inventory.add(
        "Memory",
        waveguides=clusters * memory_waveguides_per_controller,
        ring_resonators=memory_rings,
    )

    crossbar_rings = clusters * clusters * config.crossbar_channel_width_bits
    inventory.add(
        "Crossbar",
        waveguides=clusters * config.crossbar_waveguides_per_channel,
        ring_resonators=crossbar_rings,
    )

    broadcast_rings = clusters * 2 * wavelengths_per_waveguide
    inventory.add(
        "Broadcast",
        waveguides=BROADCAST_WAVEGUIDES,
        ring_resonators=broadcast_rings,
    )

    arbitration_rings = clusters * 2 * wavelengths_per_waveguide
    inventory.add(
        "Arbitration",
        waveguides=ARBITRATION_WAVEGUIDES,
        ring_resonators=arbitration_rings,
    )

    inventory.add("Clock", waveguides=CLOCK_WAVEGUIDES, ring_resonators=clusters)

    return inventory
