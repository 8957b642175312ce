"""Compute-gap distribution shared by the workload generators.

The inter-miss compute gap of a thread is drawn from a gamma distribution
with a moderate shape parameter.  An exponential (shape 1) would give the
memoryless burstiness of a Poisson process, which is too heavy-tailed for the
loop-structured SPLASH-2 codes: with ~1000 threads the run's makespan would be
dominated by the single unluckiest thread rather than by the interconnect and
memory system under study.  Shape 3 keeps realistic variability while keeping
per-thread progress rates comparable.
"""

from __future__ import annotations

import random

#: Shape parameter of the gamma-distributed compute gaps.
GAP_GAMMA_SHAPE = 3.0


def draw_gap(rng: random.Random, mean_gap_cycles: float) -> float:
    """Draw one compute gap (in core cycles) with the given mean."""
    if mean_gap_cycles < 0:
        raise ValueError(f"mean gap must be non-negative, got {mean_gap_cycles}")
    if mean_gap_cycles == 0:
        return 0.0
    return rng.gammavariate(GAP_GAMMA_SHAPE, mean_gap_cycles / GAP_GAMMA_SHAPE)
