"""Core model (Table 1 / Section 3.1.1 of the Corona paper).

Corona's cores are chosen for energy efficiency: dual-issue, in-order,
four-way multithreaded, 5 GHz, with 4-wide double-precision SIMD and fused
multiply-add.  The paper derives power and area from two anchor designs,
Penryn (out-of-order desktop) and Silverthorne (in-order low power), scaled to
16 nm; this module reproduces those derivations so the chip-level power/area
roll-up (:mod:`repro.power.chip`) can report the same 82-155 W processor power
and 423-491 mm^2 die-area range the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spec import ScenarioError, check_fields


@dataclass(frozen=True)
class CoreParameters:
    """Microarchitectural parameters of one core (Table 1)."""

    frequency_hz: float = 5e9
    threads: int = 4
    issue_width: int = 2
    in_order: bool = True
    simd_width: int = 4
    fused_multiply_add: bool = True
    l1_icache_bytes: int = 16 * 1024
    l1_icache_assoc: int = 4
    l1_dcache_bytes: int = 32 * 1024
    l1_dcache_assoc: int = 4
    cache_line_bytes: int = 64

    def __post_init__(self) -> None:
        check_fields(self)
        if self.frequency_hz <= 0:
            raise ScenarioError("frequency_hz", "core frequency must be positive")
        if self.threads < 1:
            raise ScenarioError("threads", "core must have at least one thread")
        if self.issue_width < 1:
            raise ScenarioError("issue_width", "issue width must be at least one")

    @property
    def peak_flops(self) -> float:
        """Peak double-precision FLOP/s of one core.

        SIMD width lanes, times two for fused multiply-add, times the clock.
        The issue width is not multiplied in: one FP SIMD operation issues per
        cycle alongside a non-FP operation, matching the paper's 10 Tflop
        chip-level figure (256 cores x 5 GHz x 4 lanes x 2 flops).
        """
        flops_per_lane = 2.0 if self.fused_multiply_add else 1.0
        return self.frequency_hz * self.simd_width * flops_per_lane


@dataclass(frozen=True)
class CorePowerAreaModel:
    """Power/area scaling from the paper's Penryn and Silverthorne anchors.

    The paper's recipe: take a 45 nm anchor core (Penryn for the desktop-class
    estimate, Silverthorne for the low-power estimate), scale it to 16 nm,
    reduce Penryn by 5x for the move to a simple in-order pipeline (more
    conservative than the 6x of the Berkeley "Landscape" report) and add 20%
    for four-way multithreading; assume an in-order Penryn would be one third
    the area of the out-of-order one, plus 10% area for multithreading.

    The voltage/technology scaling factors below are calibrated so the
    chip-level roll-up lands in the ranges the paper quotes -- 82-155 W for
    processor + cache + MC/hub power and 423-491 mm^2 for the processor/L1
    die -- since the paper does not publish its intermediate per-core values.
    """

    #: 45 nm Penryn per-core power (W) and area (mm^2), desktop operating point.
    penryn_core_power_w: float = 12.0
    penryn_core_area_mm2: float = 21.6
    #: 45 nm Silverthorne per-core power (W) and area (mm^2).
    silverthorne_core_power_w: float = 1.6
    silverthorne_core_area_mm2: float = 12.9
    #: Dynamic-power scaling 45 nm -> 16 nm (capacitance and voltage squared).
    penryn_power_scale_45_to_16: float = 0.15
    silverthorne_power_scale_45_to_16: float = 0.09
    #: Power reduction applied to Penryn for the in-order 16 nm core.
    penryn_power_reduction: float = 5.0
    #: Multithreading power uplift.
    multithreading_power_uplift: float = 1.2
    #: In-order Penryn area fraction.
    in_order_area_fraction: float = 1.0 / 3.0
    #: Multithreading area overhead.
    multithreading_area_overhead: float = 1.1
    #: Linear feature scaling 45 nm -> 16 nm.
    feature_scale: float = 16.0 / 45.0
    #: Layout inefficiency: wires, I/O and analog structures do not shrink
    #: with the ideal square of the feature size (the paper calls its own area
    #: scaling "pessimistic").
    penryn_area_inefficiency: float = 1.63
    silverthorne_area_inefficiency: float = 1.05

    def penryn_based_core_power_w(self) -> float:
        """16 nm in-order quad-threaded core power, Penryn-derived (~0.43 W)."""
        scaled = self.penryn_core_power_w * self.penryn_power_scale_45_to_16
        return scaled / self.penryn_power_reduction * self.multithreading_power_uplift

    def silverthorne_based_core_power_w(self) -> float:
        """16 nm core power, Silverthorne-derived (~0.17 W)."""
        scaled = (
            self.silverthorne_core_power_w * self.silverthorne_power_scale_45_to_16
        )
        return scaled * self.multithreading_power_uplift

    def penryn_based_core_area_mm2(self) -> float:
        scaled = (
            self.penryn_core_area_mm2
            * self.feature_scale**2
            * self.penryn_area_inefficiency
        )
        return scaled * self.in_order_area_fraction * self.multithreading_area_overhead

    def silverthorne_based_core_area_mm2(self) -> float:
        scaled = (
            self.silverthorne_core_area_mm2
            * self.feature_scale**2
            * self.silverthorne_area_inefficiency
            * 1.0
        )
        # Silverthorne is already in-order; only the multithreading overhead
        # applies.  Its 8T L1 cells make the resulting die the larger of the
        # two estimates, as the paper observes.
        return scaled * self.multithreading_area_overhead
