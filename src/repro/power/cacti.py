"""A simplified CACTI-style cache power and area model.

The paper used CACTI 5 to estimate directory and L2 cache power.  A faithful
CACTI reimplementation is out of scope; this module provides a transparent
analytical stand-in with the same interface role: given a cache geometry and a
process node, estimate area, leakage and per-access dynamic energy, with
constants chosen so the Corona-sized caches land in the range the paper's
die-area and power budgets imply.  All constants are exposed so ablation
benches can explore their sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache instance."""

    capacity_bytes: int
    associativity: int
    line_bytes: int = 64
    banks: int = 1
    technology_nm: float = 16.0
    cell_type: str = "6T"

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.line_bytes <= 0 or self.capacity_bytes % self.line_bytes:
            raise ValueError("capacity must be a whole number of lines")
        if self.banks < 1:
            raise ValueError("banks must be >= 1")


@dataclass(frozen=True)
class CachePowerArea:
    """Estimated power and area of one cache instance."""

    area_mm2: float
    leakage_w: float
    read_energy_j: float
    write_energy_j: float

    def dynamic_power_w(self, reads_per_s: float, writes_per_s: float) -> float:
        if reads_per_s < 0 or writes_per_s < 0:
            raise ValueError("access rates must be non-negative")
        return reads_per_s * self.read_energy_j + writes_per_s * self.write_energy_j

    def total_power_w(self, reads_per_s: float, writes_per_s: float) -> float:
        return self.leakage_w + self.dynamic_power_w(reads_per_s, writes_per_s)


#: SRAM cell area in square microns at a reference 65 nm node.
_CELL_AREA_UM2_65NM = {"6T": 0.52, "8T": 0.69}
#: Array-efficiency factor (peripheral circuitry overhead).
_ARRAY_EFFICIENCY = 0.45
#: Leakage per bit at 16 nm (watts).
_LEAKAGE_PER_BIT_W = 5e-12
#: Dynamic energy per bit read at 16 nm (joules), before wire/associativity
#: overheads.
_READ_ENERGY_PER_BIT_J = 0.18e-12


def cache_power_area(geometry: CacheGeometry) -> CachePowerArea:
    """Estimate power and area for ``geometry``.

    The model scales cell area quadratically with feature size from a 65 nm
    reference, applies an array-efficiency factor for decoders/sense-amps, and
    charges dynamic energy proportional to the bits moved per access plus a
    tag-comparison term that grows with associativity.
    """
    cell_area_um2 = _CELL_AREA_UM2_65NM.get(geometry.cell_type)
    if cell_area_um2 is None:
        raise ValueError(f"unknown cell type {geometry.cell_type!r}")
    scale = (geometry.technology_nm / 65.0) ** 2
    bits = geometry.capacity_bytes * 8
    array_area_um2 = bits * cell_area_um2 * scale / _ARRAY_EFFICIENCY
    area_mm2 = array_area_um2 / 1e6

    leakage_w = bits * _LEAKAGE_PER_BIT_W

    line_bits = geometry.line_bytes * 8
    # Tag energy: compare `associativity` tags of ~40 bits each.
    tag_bits = geometry.associativity * 40
    read_energy_j = (line_bits + tag_bits) * _READ_ENERGY_PER_BIT_J
    write_energy_j = read_energy_j * 1.15
    return CachePowerArea(
        area_mm2=area_mm2,
        leakage_w=leakage_w,
        read_energy_j=read_energy_j,
        write_energy_j=write_energy_j,
    )
