"""Sensitivity studies on the design's key physical and architectural knobs.

The paper's conclusions rest on a handful of technology projections (waveguide
loss, per-ring through loss, detector sensitivity) and architectural choices
(crossbar channel width, token-ring latency, per-thread memory-level
parallelism, memory latency).  Each function here sweeps one knob and returns
a small table, so how much device improvement Corona actually needs can be
answered quantitatively.  The ablation benchmarks
(``benchmarks/bench_ablations.py``) exercise the architectural sweeps;
``corona-repro sensitivity`` prints the physical ones
(:func:`physical_design_sweeps_text`), and ``examples/sensitivity_study.py``
prints both.  The window-depth sweep also runs as the stock ``sensitivity``
sweep (:func:`repro.sweeps.sensitivity_sweep_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator
from repro.network.crossbar import OpticalCrossbar
from repro.photonics.power_budget import PowerBudget, crossbar_worst_case_budget
from repro.trace.packed import PackedTrace
from repro.trace.synthetic import uniform_workload


@dataclass(frozen=True)
class SweepPoint:
    """One point of a one-dimensional sensitivity sweep."""

    parameter: float
    metric: float
    feasible: bool = True


def waveguide_loss_sensitivity(
    losses_db_per_cm: Sequence[float] = (0.1, 0.3, 0.5, 1.0, 2.0, 3.0),
    detector_sensitivity_dbm: float = -20.0,
    laser_power_per_wavelength_dbm: float = 0.0,
    margin_db: float = 3.0,
) -> List[SweepPoint]:
    """Link-budget margin of the worst-case crossbar path vs waveguide loss.

    Today's demonstrated waveguides (2-3 dB/cm) do not close a 16 cm
    serpentine budget; the paper's architecture implicitly assumes roughly an
    order of magnitude improvement.  The sweep makes that requirement visible.
    """
    points: List[SweepPoint] = []
    for loss in losses_db_per_cm:
        budget = PowerBudget(
            loss_budget=crossbar_worst_case_budget(waveguide_loss_db_per_cm=loss),
            detector_sensitivity_dbm=detector_sensitivity_dbm,
            laser_power_per_wavelength_dbm=laser_power_per_wavelength_dbm,
            margin_db=margin_db,
        )
        points.append(
            SweepPoint(
                parameter=loss,
                metric=budget.margin_achieved_db,
                feasible=budget.closes,
            )
        )
    return points


def ring_through_loss_sensitivity(
    through_losses_db: Sequence[float] = (0.00005, 0.0001, 0.0005, 0.001, 0.005),
    ring_passes: int = 64 * 64,
) -> List[SweepPoint]:
    """Link-budget margin vs per-ring through loss.

    A message on a crossbar channel passes every other cluster's ring bank, so
    even tiny per-ring losses multiply by thousands of rings; this is the
    device parameter the design is most sensitive to.
    """
    points: List[SweepPoint] = []
    for loss in through_losses_db:
        budget = PowerBudget(
            loss_budget=crossbar_worst_case_budget(
                ring_through_loss_db=loss, ring_passes=ring_passes
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


def required_laser_power_sensitivity(
    losses_db_per_cm: Sequence[float] = (0.1, 0.3, 0.5, 1.0),
    wavelengths: int = 64 * 4 * 64,
    wall_plug_efficiency: float = 0.1,
) -> List[SweepPoint]:
    """Total wall-plug laser power for the crossbar vs waveguide loss.

    The metric is watts for all crossbar wavelength feeds; infeasible points
    are those whose laser power alone would exceed the paper's 39 W photonic
    budget.
    """
    points: List[SweepPoint] = []
    for loss in losses_db_per_cm:
        budget = PowerBudget(
            loss_budget=crossbar_worst_case_budget(waveguide_loss_db_per_cm=loss),
        )
        per_wavelength_w = budget.required_laser_power_w()
        total_w = per_wavelength_w * wavelengths / wall_plug_efficiency
        points.append(
            SweepPoint(parameter=loss, metric=total_w, feasible=total_w < 39.0)
        )
    return points


def channel_bandwidth_sensitivity(
    trace: Optional[PackedTrace] = None,
    channel_bandwidths_bytes_per_s: Sequence[float] = (80e9, 160e9, 320e9, 640e9),
    num_requests: int = 8000,
    window_depth: int = 8,
) -> List[SweepPoint]:
    """Achieved bandwidth of XBar/OCM vs per-channel crossbar bandwidth."""
    if trace is None:
        trace = uniform_workload().generate_packed(seed=1, num_requests=num_requests)
    points: List[SweepPoint] = []
    for bandwidth in channel_bandwidths_bytes_per_s:
        network = OpticalCrossbar(channel_bandwidth_bytes_per_s=bandwidth)
        simulator = SystemSimulator(
            configuration_by_name("XBar/OCM"),
            network=network,
            window_depth=window_depth,
        )
        result = simulator.run(trace)
        points.append(
            SweepPoint(
                parameter=bandwidth, metric=result.achieved_bandwidth_bytes_per_s
            )
        )
    return points


def window_depth_sensitivity(
    trace: Optional[PackedTrace] = None,
    depths: Sequence[int] = (1, 2, 4, 8, 16),
    num_requests: int = 8000,
    configuration_name: str = "XBar/OCM",
) -> List[SweepPoint]:
    """Achieved bandwidth vs per-thread outstanding-miss window."""
    if trace is None:
        trace = uniform_workload().generate_packed(seed=1, num_requests=num_requests)
    points: List[SweepPoint] = []
    for depth in depths:
        simulator = SystemSimulator(
            configuration_by_name(configuration_name), window_depth=depth
        )
        result = simulator.run(trace)
        points.append(
            SweepPoint(parameter=depth, metric=result.achieved_bandwidth_bytes_per_s)
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
