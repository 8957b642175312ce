"""The evaluation matrix and its scaling knobs.

The paper replays 1 M-request synthetic traces and up to 240 M-request
SPLASH-2 traces on five system configurations.  A pure-Python replay cannot
afford hundreds of millions of events per run, so the harness scales every
workload down while preserving its per-thread statistics: the request count
changes, the miss process does not.  Speedups, bandwidths, latencies and
powers are rates or ratios, so they converge quickly with trace length; the
scale is a command-line/benchmark knob, not a hidden constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.coherence import CoherenceConfig
from repro.core.config import CoronaConfig
from repro.core.configs import CONFIGURATION_ORDER, all_configurations
from repro.core.results import WorkloadResult
from repro.trace.splash2 import SPLASH2_ORDER, splash2_workloads
from repro.trace.synthetic import synthetic_workloads


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
        if self.splash_min_requests > self.splash_max_requests:
            raise ValueError("splash_min_requests exceeds splash_max_requests")

    def splash_requests(self, paper_requests: int) -> int:
        """Scaled request count for a SPLASH-2 benchmark."""
        scaled = int(round(paper_requests * self.splash_fraction))
        return max(self.splash_min_requests, min(self.splash_max_requests, scaled))


#: Scale used by the pytest benchmarks by default: small enough that the whole
#: 75-run matrix finishes in minutes, large enough that every hardware thread
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


@dataclass
class EvaluationMatrix:
    """The (configuration x workload) matrix of the paper's evaluation.

    ``workload_filter`` keeps only workloads whose name contains one of the
    given substrings (case-insensitive) -- the mechanism behind the CLI's
    ``--workloads`` flag, letting a single (configuration, workload) pair run
    without the full matrix.  ``coherence`` enables the timed MOESI directory
    for every replay of the matrix (shared-tagged records only; the stock
    workloads carry none unless given a sharing profile).  ``corona_config``
    re-parameterizes the architecture for every simulator of the matrix
    (``None`` keeps the paper's design point -- the Scenario API sets this
    from ``system.overrides``).
    """

    scale: ExperimentScale = field(default_factory=ExperimentScale)
    configuration_names: Sequence[str] = field(
        default_factory=lambda: list(CONFIGURATION_ORDER)
    )
    include_synthetic: bool = True
    include_splash: bool = True
    workload_filter: Optional[Sequence[str]] = None
    coherence: Optional[CoherenceConfig] = None
    corona_config: Optional[CoronaConfig] = None

    def _matches_filter(self, name: str) -> bool:
        if self.workload_filter is None:
            return True
        lowered = name.lower()
        return any(term.lower() in lowered for term in self.workload_filter)

    def workloads(self) -> List:
        """Workload generators in the paper's plot order."""
        workloads: List = []
        if self.include_synthetic:
            workloads.extend(synthetic_workloads())
        if self.include_splash:
            workloads.extend(splash2_workloads())
        return [w for w in workloads if self._matches_filter(w.name)]

    def workload_names(self) -> List[str]:
        return [w.name for w in self.workloads()]

    def synthetic_names(self) -> List[str]:
        if not self.include_synthetic:
            return []
        return [
            w.name for w in synthetic_workloads() if self._matches_filter(w.name)
        ]

    def splash_names(self) -> List[str]:
        if not self.include_splash:
            return []
        return [name for name in SPLASH2_ORDER if self._matches_filter(name)]

    def requests_for(self, workload) -> int:
        """Scaled request count for one workload."""
        fixed = getattr(workload, "fixed_requests", None)
        if fixed is not None:
            # Trace-file workloads carry their own record count; the scale
            # tier cannot grow or shrink fixed on-disk data.
            return fixed
        if getattr(workload, "is_synthetic", False):
            return self.scale.synthetic_requests
        return self.scale.splash_requests(workload.profile.paper_requests)

    def configurations(self) -> List:
        by_name = {c.name: c for c in all_configurations()}
        return [by_name[name] for name in self.configuration_names]

    def run_count(self) -> int:
        return len(self.configuration_names) * len(self.workloads())


def default_matrix(scale: Optional[ExperimentScale] = None) -> EvaluationMatrix:
    """The full 5 x 17 matrix (6 synthetic + 11 SPLASH-2) at default scale."""
    return EvaluationMatrix(scale=scale or ExperimentScale())


def quick_matrix() -> EvaluationMatrix:
    """A fast matrix for benchmarks and CI: all workloads, quick scale."""
    return EvaluationMatrix(scale=QUICK_SCALE)


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
