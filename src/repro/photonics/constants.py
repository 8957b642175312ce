"""Technology constants and the dB conversion used by the photonic models.

The paper facts behind them are collected in the :mod:`repro.photonics`
docstring.
"""

from __future__ import annotations

import math

#: Operating wavelength used by Corona (metres): ~1.3 um for unstrained Ge.
OPERATING_WAVELENGTH_M = 1.3e-6

#: Number of wavelengths provided by one mode-locked comb laser.
WAVELENGTHS_PER_LASER = 64


def fraction_to_db(fraction: float) -> float:
    """Convert a transmitted power fraction to a loss in dB."""
    if fraction <= 0:
        raise ValueError(f"power fraction must be positive, got {fraction}")
    return -10.0 * math.log10(fraction)
