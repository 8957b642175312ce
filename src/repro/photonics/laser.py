"""Mode-locked comb laser model.

Corona uses off-stack (or mezzanine-attached) mode-locked lasers that each
emit a comb of 64 equally spaced, phase-coherent wavelengths.  The laser is a
continuous-wave source: data is encoded downstream by ring modulators.  The
model tracks the comb (line count and center wavelength) and its optical and
wall-plug electrical power; the per-wavelength power the worst-case path needs
comes from :class:`~repro.photonics.power_budget.PowerBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics.constants import OPERATING_WAVELENGTH_M, WAVELENGTHS_PER_LASER


@dataclass
class ModeLockedLaser:
    """A continuous-wave comb laser.

    Parameters
    ----------
    name:
        Identifier for reporting.
    num_wavelengths:
        Comb lines emitted (64 in the paper).
    center_wavelength_m:
        Center of the comb; ~1.3 um for unstrained germanium detection.
    power_per_wavelength_w:
        Optical power emitted per comb line.
    wall_plug_efficiency:
        Electrical-to-optical conversion efficiency.
    """

    name: str = "laser"
    num_wavelengths: int = WAVELENGTHS_PER_LASER
    center_wavelength_m: float = OPERATING_WAVELENGTH_M
    power_per_wavelength_w: float = 1e-3
    wall_plug_efficiency: float = 0.1

    def __post_init__(self) -> None:
        if self.num_wavelengths < 1:
            raise ValueError(
                f"laser must emit at least one wavelength, got {self.num_wavelengths}"
            )
        if not 0 < self.wall_plug_efficiency <= 1:
            raise ValueError(
                f"efficiency must be in (0, 1], got {self.wall_plug_efficiency}"
            )

    @property
    def total_optical_power_w(self) -> float:
        """Total optical power emitted across the comb."""
        return self.num_wavelengths * self.power_per_wavelength_w

    @property
    def electrical_power_w(self) -> float:
        """Wall-plug electrical power drawn by the laser."""
        return self.total_optical_power_w / self.wall_plug_efficiency
