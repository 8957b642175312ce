"""Nanophotonic budget models (Sections 2 and 3 of the Corona paper).

The data channels themselves are not modelled here: the crossbar channel
width and bandwidth (4 waveguides x 64 wavelengths at 10 Gb/s, 320 GB/s) and
the OCM links (64 wavelengths, 80 GB/s each) are derived once, by
:class:`~repro.core.config.CoronaConfig`, and the replayed networks and
memory channels are built from it.  This package holds what sits beside the
replay:

* :mod:`repro.photonics.inventory` -- the Table 2 waveguide and ring counts;
* :mod:`repro.photonics.power_budget` -- the worst-case crossbar link budget
  behind ``corona-repro sensitivity``;
* :mod:`repro.photonics.splitter` -- the broadcast bus's chain of splitter
  taps;
* :mod:`repro.photonics.laser` -- a comb laser's optical and wall-plug power.

Device facts from Section 2 of the paper, kept here for reference:

* silicon-on-insulator waveguides have a ~500 nm core, walls of at least
  1 um, bend radii of ~10 um and 2-3 dB/cm of loss (the link budget assumes
  0.3 dB/cm for the 16 nm node);
* light travels ~2 cm of waveguide per 5 GHz clock (group index ~3), so the
  crossbar's worst-case serpentine of ~16 cm takes 8 clocks;
* ring resonators are 3-5 um across and modulate at 10 Gb/s, signalling on
  both edges of the 5 GHz clock;
* germanium detectors absorb between 1.1 and 1.5 um (Corona operates at
  ~1.3 um); their ~1 fF capacitance lets receivers work without
  trans-impedance amplifiers, and less than 1% absorption per pass suffices
  because the resonant wavelength recirculates in the ring;
* a mode-locked laser supplies a comb of 64 wavelengths per waveguide.
"""

from repro.photonics.inventory import corona_inventory
from repro.photonics.laser import ModeLockedLaser
from repro.photonics.power_budget import PowerBudget, crossbar_worst_case_budget
from repro.photonics.splitter import splitter_chain_losses

__all__ = [
    "ModeLockedLaser",
    "PowerBudget",
    "crossbar_worst_case_budget",
    "corona_inventory",
    "splitter_chain_losses",
]
