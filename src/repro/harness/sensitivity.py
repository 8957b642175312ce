"""Sensitivity studies on the design's key physical knobs.

The paper's conclusions rest on a handful of technology projections
(waveguide loss, per-ring through loss, detector sensitivity).  Each function
here sweeps one of them through the crossbar's link budget and returns a
small table, so how much device improvement Corona actually needs can be
answered quantitatively; ``corona-repro sensitivity`` prints all three
(:func:`physical_design_sweeps_text`).

The architectural knobs (per-thread memory-level parallelism, crossbar
channel width, token-ring latency, memory latency) need a replay, so they
run as sweeps: the stock ``sensitivity`` sweep over the window
(:func:`repro.sweeps.sensitivity_sweep_spec`), or a ``system.overrides.*``
axis over a :class:`~repro.core.config.CoronaConfig` field, as
``examples/sensitivity_study.py`` does for the crossbar channel width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import CORONA_DEFAULT
from repro.photonics.power_budget import PowerBudget, crossbar_worst_case_budget
from repro.power.optical import PHOTONIC_SUBSYSTEM_POWER_W

#: Waveguide losses (dB/cm) swept for the link-budget margin: from the
#: projected 0.1-0.5 dB/cm to today's demonstrated 2-3 dB/cm.
WAVEGUIDE_LOSSES_DB_PER_CM = (0.1, 0.3, 0.5, 1.0, 2.0, 3.0)
#: Per-ring through losses (dB) swept for the link-budget margin.
RING_THROUGH_LOSSES_DB = (0.00005, 0.0001, 0.0005, 0.001, 0.005)
#: Waveguide losses (dB/cm) swept for the crossbar's laser power.
LASER_WAVEGUIDE_LOSSES_DB_PER_CM = (0.1, 0.3, 0.5, 1.0)
#: Wall-plug efficiency of the comb laser.
WALL_PLUG_EFFICIENCY = 0.1


@dataclass(frozen=True)
class SweepPoint:
    """One point of a one-dimensional sensitivity sweep."""

    parameter: float
    metric: float
    feasible: bool = True


def waveguide_loss_sensitivity() -> List[SweepPoint]:
    """Link-budget margin of the worst-case crossbar path vs waveguide loss.

    Today's demonstrated waveguides (2-3 dB/cm) do not close a 16 cm
    serpentine budget; the paper's architecture implicitly assumes roughly an
    order of magnitude improvement.  The sweep makes that requirement visible.
    """
    points: List[SweepPoint] = []
    for loss in WAVEGUIDE_LOSSES_DB_PER_CM:
        budget = PowerBudget(
            loss_budget=crossbar_worst_case_budget(
                CORONA_DEFAULT, waveguide_loss_db_per_cm=loss
            ),
        )
        points.append(
            SweepPoint(
                parameter=loss,
                metric=budget.margin_achieved_db,
                feasible=budget.closes,
            )
        )
    return points


def ring_through_loss_sensitivity() -> List[SweepPoint]:
    """Link-budget margin vs per-ring through loss.

    A message on a crossbar channel passes every other cluster's ring bank, so
    even tiny per-ring losses multiply by thousands of rings; this is the
    device parameter the design is most sensitive to.
    """
    points: List[SweepPoint] = []
    for loss in RING_THROUGH_LOSSES_DB:
        budget = PowerBudget(
            loss_budget=crossbar_worst_case_budget(
                CORONA_DEFAULT, ring_through_loss_db=loss
            ),
        )
        points.append(
            SweepPoint(
                parameter=loss,
                metric=budget.margin_achieved_db,
                feasible=budget.closes,
            )
        )
    return points


def required_laser_power_sensitivity() -> List[SweepPoint]:
    """Total wall-plug laser power for the crossbar vs waveguide loss.

    The metric is watts for all crossbar wavelength feeds (every wavelength
    of every channel); infeasible points are those whose laser power alone
    would exceed the paper's 39 W photonic budget.
    """
    wavelengths = CORONA_DEFAULT.num_clusters * CORONA_DEFAULT.crossbar_channel_width_bits
    points: List[SweepPoint] = []
    for loss in LASER_WAVEGUIDE_LOSSES_DB_PER_CM:
        budget = PowerBudget(
            loss_budget=crossbar_worst_case_budget(
                CORONA_DEFAULT, waveguide_loss_db_per_cm=loss
            ),
        )
        per_wavelength_w = budget.required_laser_power_w()
        total_w = per_wavelength_w * wavelengths / WALL_PLUG_EFFICIENCY
        points.append(
            SweepPoint(
                parameter=loss,
                metric=total_w,
                feasible=total_w < PHOTONIC_SUBSYSTEM_POWER_W,
            )
        )
    return points


def format_sweep(
    title: str,
    points: Sequence[SweepPoint],
    parameter_label: str,
    metric_label: str,
) -> str:
    """Render a sweep as a small text table."""
    lines = [title, "-" * len(title)]
    lines.append(f"{parameter_label:>16}  {metric_label:>16}  feasible")
    for point in points:
        lines.append(
            f"{point.parameter:>16.6g}  {point.metric:>16.4g}  "
            f"{'yes' if point.feasible else 'NO'}"
        )
    return "\n".join(lines)


def physical_design_sweeps_text() -> str:
    """The three photonic-design sweeps, formatted and blank-line separated
    -- the output of ``corona-repro sensitivity``."""
    sweeps = [
        (
            "Crossbar link-budget margin vs waveguide loss",
            waveguide_loss_sensitivity(),
            "dB/cm",
            "margin (dB)",
        ),
        (
            "Crossbar link-budget margin vs per-ring through loss",
            ring_through_loss_sensitivity(),
            "dB/ring",
            "margin (dB)",
        ),
        (
            "Crossbar laser wall-plug power vs waveguide loss",
            required_laser_power_sensitivity(),
            "dB/cm",
            "laser power (W)",
        ),
    ]
    return "\n\n".join(
        format_sweep(title, points, parameter_label=parameter, metric_label=metric)
        for title, points, parameter, metric in sweeps
    )
