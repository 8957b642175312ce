#!/usr/bin/env python3
"""Photonic design walk-through: laser, channels, inventory, link budget and power.

Walks the Corona photonic subsystem bottom-up the way Sections 2 and 3 of the
paper do: a 64-wavelength comb laser, the 4-waveguide crossbar channel and the
OCM link as the replayed system derives them (``CORONA_DEFAULT``), the Table 2
device inventory, the worst-case crossbar loss budget, and the power
comparison that motivates the whole design (optical vs electrical signalling
for a 10 TB/s memory system).

Run with::

    python examples/photonic_design.py
"""

from __future__ import annotations

from repro.core.config import CORONA_DEFAULT
from repro.harness.tables import format_table, table2_optical_inventory
from repro.photonics.laser import ModeLockedLaser
from repro.photonics.power_budget import PowerBudget, crossbar_worst_case_budget
from repro.power.electrical import electrical_memory_interconnect_power_w
from repro.power.optical import optical_memory_interconnect_power_w


def main() -> None:
    print("1. The light source: a mode-locked comb laser")
    laser = ModeLockedLaser()
    print(f"   {laser.num_wavelengths} wavelengths around "
          f"{laser.center_wavelength_m * 1e6:.2f} um, "
          f"{laser.total_optical_power_w * 1e3:.1f} mW optical, "
          f"{laser.electrical_power_w:.2f} W wall-plug")

    config = CORONA_DEFAULT
    inventory = table2_optical_inventory(config)
    crossbar_rings = next(rings for name, _, rings in inventory if name == "Crossbar")
    print(f"\n2. A crossbar channel: {config.crossbar_waveguides_per_channel} "
          f"waveguides x {config.crossbar_wavelengths_per_waveguide} wavelengths")
    bandwidth = config.crossbar_channel_bandwidth_bytes_per_s
    print(f"   phit width: {config.crossbar_channel_width_bits} bits, "
          f"bandwidth: {bandwidth / 1e9:.0f} GB/s, "
          f"cache line in {config.cluster.l2_line_bytes / bandwidth * 1e12:.0f} ps, "
          f"rings: {crossbar_rings // config.num_clusters}")

    per_controller = config.memory_bandwidth_per_controller_bytes_per_s
    link = per_controller / config.memory_links_per_controller
    print(f"   one OCM fiber link: {link / 1e9:.0f} GB/s "
          f"(each controller uses a pair -> {per_controller / 1e9:.0f} GB/s)")

    print("\n3. Table 2: optical resource inventory")
    print(format_table(
        ["Photonic Subsystem", "Waveguides", "Ring Resonators"], inventory
    ))

    print("\n4. Worst-case crossbar link budget")
    budget = PowerBudget(
        loss_budget=crossbar_worst_case_budget(),
        detector_sensitivity_dbm=-20.0,
        laser_power_per_wavelength_dbm=0.0,
        margin_db=3.0,
    )
    print(budget.report())

    print("\n5. Why optics: memory interconnect power at 10.24 TB/s")
    electrical = electrical_memory_interconnect_power_w(10.24e12)
    optical = optical_memory_interconnect_power_w(10.24e12)
    print(f"   electrical signalling (2 mW/Gb/s):   {electrical:7.1f} W")
    print(f"   optical signalling (0.078 mW/Gb/s):  {optical:7.1f} W")
    print(f"   ratio: {electrical / optical:.0f}x")


if __name__ == "__main__":
    main()
