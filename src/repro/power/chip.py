"""Chip-level power and area roll-up (Section 3.1 of the Corona paper).

The paper quotes, for the full 256-core design at 16 nm:

* total processor + cache + memory-controller + hub power between **82 W**
  (Silverthorne-based estimate) and **155 W** (Penryn-based estimate);
* processor/L1 die area between **423 mm^2** (Penryn-based) and **491 mm^2**
  (Silverthorne-based);
* 39 W for the photonic subsystem and ~6.4 W for the OCM links.

``corona_chip_power`` reassembles those numbers from the per-component models
so the whole budget is auditable and re-parameterizable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CoronaConfig, CORONA_DEFAULT
from repro.cores.core import CorePowerAreaModel
from repro.power.cacti import CacheGeometry, cache_power_area
from repro.power.optical import (
    PHOTONIC_SUBSYSTEM_POWER_W,
    optical_memory_interconnect_power_w,
)


@dataclass(frozen=True)
class ChipPowerReport:
    """Breakdown of chip power (watts) and area (mm^2) for one anchor design."""

    anchor: str
    core_power_w: float
    l1_power_w: float
    l2_power_w: float
    directory_power_w: float
    hub_mc_power_w: float
    photonic_power_w: float
    memory_interconnect_power_w: float
    core_die_area_mm2: float

    @property
    def processor_power_w(self) -> float:
        """Processor + caches + MC/hub power (the paper's 82-155 W range)."""
        return (
            self.core_power_w
            + self.l1_power_w
            + self.l2_power_w
            + self.directory_power_w
            + self.hub_mc_power_w
        )

    @property
    def total_power_w(self) -> float:
        return (
            self.processor_power_w
            + self.photonic_power_w
            + self.memory_interconnect_power_w
        )


#: Fraction of peak access rate assumed for cache dynamic power sizing.
_CACHE_ACTIVITY_FACTOR = 0.10
#: Hub + memory-controller power per cluster, scaled from the paper's
#: synthesized 65 nm designs (watts).
_HUB_MC_POWER_PER_CLUSTER_W = 0.35


def corona_chip_power(
    config: CoronaConfig = CORONA_DEFAULT,
    anchor: str = "penryn",
    model: CorePowerAreaModel = CorePowerAreaModel(),
) -> ChipPowerReport:
    """Roll up chip power/area for the ``penryn`` or ``silverthorne`` anchor."""
    anchor = anchor.lower()
    if anchor not in ("penryn", "silverthorne"):
        raise ValueError(f"anchor must be 'penryn' or 'silverthorne', got {anchor!r}")

    if anchor == "penryn":
        core_power = model.penryn_based_core_power_w()
        core_area = model.penryn_based_core_area_mm2()
        cell_type = "6T"
    else:
        core_power = model.silverthorne_based_core_power_w()
        core_area = model.silverthorne_based_core_area_mm2()
        cell_type = "8T"

    num_cores = config.num_cores
    num_clusters = config.num_clusters
    clock = config.clock_hz

    l1_geometry = CacheGeometry(
        capacity_bytes=config.core.l1_icache_bytes + config.core.l1_dcache_bytes,
        associativity=config.core.l1_dcache_assoc,
        technology_nm=16.0,
        cell_type=cell_type,
    )
    l1_estimate = cache_power_area(l1_geometry)
    l1_access_rate = clock * _CACHE_ACTIVITY_FACTOR
    l1_power = num_cores * l1_estimate.total_power_w(
        reads_per_s=l1_access_rate * 0.7, writes_per_s=l1_access_rate * 0.3
    )

    l2_geometry = CacheGeometry(
        capacity_bytes=config.cluster.l2_cache_bytes,
        associativity=config.cluster.l2_associativity,
        technology_nm=16.0,
        banks=4,
    )
    l2_estimate = cache_power_area(l2_geometry)
    l2_access_rate = clock * 0.02
    l2_power = num_clusters * l2_estimate.total_power_w(
        reads_per_s=l2_access_rate * 0.7, writes_per_s=l2_access_rate * 0.3
    )

    directory_geometry = CacheGeometry(
        capacity_bytes=config.cluster.l2_cache_bytes // 16,
        associativity=config.cluster.l2_associativity,
        technology_nm=16.0,
    )
    directory_estimate = cache_power_area(directory_geometry)
    directory_power = num_clusters * directory_estimate.total_power_w(
        reads_per_s=l2_access_rate, writes_per_s=l2_access_rate * 0.5
    )

    hub_mc_power = num_clusters * _HUB_MC_POWER_PER_CLUSTER_W

    l1_area = l1_estimate.area_mm2 * num_cores
    core_die_area = num_cores * core_area + l1_area

    return ChipPowerReport(
        anchor=anchor,
        core_power_w=num_cores * core_power,
        l1_power_w=l1_power,
        l2_power_w=l2_power,
        directory_power_w=directory_power,
        hub_mc_power_w=hub_mc_power,
        photonic_power_w=PHOTONIC_SUBSYSTEM_POWER_W,
        memory_interconnect_power_w=optical_memory_interconnect_power_w(
            config.memory_total_bandwidth_bytes_per_s
        ),
        core_die_area_mm2=core_die_area,
    )
