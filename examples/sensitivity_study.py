#!/usr/bin/env python3
"""Sensitivity study: how good do the photonic devices have to be?

The Corona architecture assumes 2017-class device quality.  This example
sweeps the three physical parameters the crossbar's link budget is most
sensitive to -- waveguide propagation loss, per-ring through loss and the
laser power needed to close the budget -- and two architectural knobs
(crossbar channel bandwidth and per-thread memory-level parallelism) whose
settings determine how much of the optical bandwidth the system can actually
use.

The two architectural tables are sweeps (:func:`repro.sweeps.run_sweep`):
the stock ``sensitivity`` sweep over the miss window, and a grid with a
``system.overrides.crossbar_waveguides_per_channel`` axis (1, 2, 4 and 8
waveguides, i.e. 80-640 GB/s per channel).

Run with::

    python examples/sensitivity_study.py [num_requests]
"""

from __future__ import annotations

import sys

from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec
from repro.core.config import CORONA_DEFAULT
from repro.harness.sensitivity import (
    SweepPoint,
    format_sweep,
    required_laser_power_sensitivity,
    ring_through_loss_sensitivity,
    waveguide_loss_sensitivity,
)
from repro.sweeps import SweepAxis, SweepSpec, run_sweep, sensitivity_sweep_spec

WAVEGUIDES_PER_CHANNEL = (1, 2, 4, 8)


def channel_width_spec(num_requests: int) -> SweepSpec:
    """Uniform on XBar/OCM, one point per crossbar channel width."""
    return SweepSpec(
        name="channel-width",
        description="Achieved bandwidth vs crossbar waveguides per channel.",
        base=Scenario(
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(WorkloadSpec(name="Uniform", num_requests=num_requests),),
            scale=ScaleSpec(tier="quick", seed=1),
        ),
        axes=(
            SweepAxis(
                name="waveguides",
                path="system.overrides.crossbar_waveguides_per_channel",
                values=WAVEGUIDES_PER_CHANNEL,
            ),
        ),
    )


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 6_000

    print(format_sweep(
        "Crossbar link-budget margin vs waveguide loss (16 cm worst-case path)",
        waveguide_loss_sensitivity(),
        parameter_label="dB/cm",
        metric_label="margin (dB)",
    ))
    print("\nDemonstrated waveguides (2-3 dB/cm) do not close the budget; the\n"
          "architecture needs roughly 10x lower propagation loss.\n")

    print(format_sweep(
        "Crossbar link-budget margin vs per-ring through loss (4096 ring passes)",
        ring_through_loss_sensitivity(),
        parameter_label="dB/ring",
        metric_label="margin (dB)",
    ))
    print()

    print(format_sweep(
        "Laser wall-plug power for the crossbar vs waveguide loss",
        required_laser_power_sensitivity(),
        parameter_label="dB/cm",
        metric_label="laser power (W)",
    ))
    print()

    widths = run_sweep(channel_width_spec(num_requests))
    print(format_sweep(
        "Achieved bandwidth (Uniform, XBar/OCM) vs crossbar channel bandwidth",
        [
            SweepPoint(
                parameter=CORONA_DEFAULT.with_overrides(
                    {"crossbar_waveguides_per_channel": record.axis_values["waveguides"]}
                ).crossbar_channel_bandwidth_bytes_per_s,
                metric=record.result.achieved_bandwidth_bytes_per_s,
            )
            for record in widths.records
        ],
        parameter_label="bytes/s per channel",
        metric_label="achieved (bytes/s)",
    ))
    print()

    windows = run_sweep(sensitivity_sweep_spec(num_requests=num_requests))
    print(format_sweep(
        "Achieved bandwidth (Uniform, XBar/OCM) vs per-thread miss window",
        [
            SweepPoint(
                parameter=record.axis_values["window"],
                metric=record.result.achieved_bandwidth_bytes_per_s,
            )
            for record in windows.records
        ],
        parameter_label="window (misses)",
        metric_label="achieved (bytes/s)",
    ))


if __name__ == "__main__":
    main()
