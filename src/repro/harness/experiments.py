"""The scaling knobs of the evaluation, and the coherence sweep's report.

The paper replays 1 M-request synthetic traces and up to 240 M-request
SPLASH-2 traces on five system configurations.  A pure-Python replay cannot
afford hundreds of millions of events per run, so the harness scales every
workload down while preserving its per-thread statistics: the request count
changes, the miss process does not.  Speedups, bandwidths, latencies and
powers are rates or ratios, but they do not converge quickly with trace
length: a short run weighs start-up and drain heavily, most on XBar/OCM,
whose runs are shortest in simulated time.  With seed 1, the synthetic
XBar/OCM-over-HMesh/OCM geomean is 1.42 at 3k requests per workload, 2.42
at the quick tier's 12k, 3.28 at 48k and 3.72 at 192k.  The scale is a
command-line/benchmark knob, not a hidden constant; choose it for the
claim being checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.results import WorkloadResult


@dataclass(frozen=True)
class ExperimentScale:
    """How far to scale the paper's request counts down.

    Parameters
    ----------
    synthetic_requests:
        Requests per synthetic workload (paper: 1 M).
    splash_fraction:
        Fraction of each SPLASH-2 benchmark's Table 3 request count to replay.
    splash_min_requests, splash_max_requests:
        Clamp on the scaled SPLASH-2 request counts, so tiny benchmarks still
        exercise every thread and huge ones stay tractable.
    seed:
        Trace-generation seed (runs are deterministic for a given seed).
    """

    synthetic_requests: int = 60_000
    splash_fraction: float = 1.0 / 4000.0
    splash_min_requests: int = 20_000
    splash_max_requests: int = 80_000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.synthetic_requests < 1:
            raise ValueError("synthetic request count must be >= 1")
        if not 0 < self.splash_fraction <= 1:
            raise ValueError("splash fraction must be in (0, 1]")
        if self.splash_min_requests < 1:
            raise ValueError("splash_min_requests must be >= 1")
        if self.splash_min_requests > self.splash_max_requests:
            raise ValueError("splash_min_requests exceeds splash_max_requests")

    def splash_requests(self, paper_requests: int) -> int:
        """Scaled request count for a SPLASH-2 benchmark."""
        scaled = int(round(paper_requests * self.splash_fraction))
        return max(self.splash_min_requests, min(self.splash_max_requests, scaled))


#: Scale used by the pytest benchmarks by default: small enough that the whole
#: 85-pair matrix finishes in minutes, large enough that every hardware thread
#: issues dozens of misses.
QUICK_SCALE = ExperimentScale(
    synthetic_requests=12_000,
    splash_fraction=1.0 / 10_000.0,
    splash_min_requests=8_000,
    splash_max_requests=18_000,
)

#: Scale aimed at overnight-quality numbers.
FULL_SCALE = ExperimentScale(
    synthetic_requests=200_000,
    splash_fraction=1.0 / 1000.0,
    splash_min_requests=50_000,
    splash_max_requests=250_000,
)

#: The paper's own synthetic request count (Table 3: 1 M per pattern) with
#: SPLASH-2 scaled to comparable per-workload trace lengths (Ocean's 240 M
#: becomes 1 M; FFT/Radix land just below).  ~17 M replayed requests across
#: the 85-pair matrix: practical on a multicore host thanks to the packed
#: trace pipeline (zero-copy worker shipping, no per-record objects), but
#: still a many-hour serial run -- use ``--jobs 0``.
PAPER_SCALE = ExperimentScale(
    synthetic_requests=1_000_000,
    splash_fraction=1.0 / 240.0,
    splash_min_requests=100_000,
    splash_max_requests=1_000_000,
)


# --------------------------------------------------------------------------
# Sharing-fraction sweep: the photonic-vs-electrical coherence cost axis.
# The grid itself is repro.sweeps.coherence_sweep_spec; these are its
# defaults and its report section.
# --------------------------------------------------------------------------

#: Configurations the sweep compares by default: the all-electrical baseline,
#: the high-performance mesh, and the Corona design (the only one with the
#: broadcast bus).
COHERENCE_SWEEP_CONFIGURATIONS = ("LMesh/ECM", "HMesh/ECM", "XBar/OCM")

#: Sharing fractions swept by default (0 doubles as the no-coherence control).
COHERENCE_SWEEP_FRACTIONS = (0.0, 0.1, 0.3, 0.5)


@dataclass(frozen=True)
class CoherenceSweepPoint:
    """Results of one sharing fraction across the sweep's configurations."""

    sharing_fraction: float
    results: Sequence[WorkloadResult]


def coherence_sweep_report(points: Sequence[CoherenceSweepPoint]) -> str:
    """Render the sweep as a markdown section.

    One table per sharing fraction, one row per configuration, with the
    coherence-cost metrics side by side: the broadcast-equipped photonic
    configuration should show the lowest invalidation latency once sharing
    is enabled.
    """
    lines: List[str] = ["## Coherence cost sweep (sharing fraction)", ""]
    lines.append(
        "Invalidations ride the optical broadcast bus on configurations that "
        "carry one (XBar/OCM) and fan out as per-sharer unicasts elsewhere; "
        "`inval ns` is the mean time from directory action to the slowest "
        "sharer's invalidation, `c2c ns` the mean cache-to-cache transfer "
        "latency."
    )
    lines.append("")
    header = (
        "| configuration | exec us | miss ns | inval ns | c2c ns "
        "| bcasts | unicasts | writebacks | bus occ |"
    )
    divider = "|---" * 9 + "|"
    for point in points:
        lines.append(f"### Sharing fraction {point.sharing_fraction:g}")
        lines.append("")
        lines.append(header)
        lines.append(divider)
        for result in point.results:
            lines.append(
                f"| {result.configuration} "
                f"| {result.execution_time_s * 1e6:.2f} "
                f"| {result.average_latency_ns:.1f} "
                f"| {result.average_invalidation_latency_ns:.2f} "
                f"| {result.average_cache_to_cache_latency_ns:.2f} "
                f"| {result.invalidation_broadcasts} "
                f"| {result.invalidation_unicasts} "
                f"| {result.dirty_writebacks} "
                f"| {result.broadcast_occupancy:.4f} |"
            )
        lines.append("")
    return "\n".join(lines)
