"""Figures 8-11 of the paper as data series and ASCII charts.

Each ``figure*`` function consumes the list of
:class:`~repro.core.results.WorkloadResult` produced by
:func:`repro.api.run` and returns
``{workload: {configuration: value}}`` in the paper's plot order.
``render_figure`` draws a grouped horizontal bar chart in plain text, and
``speedup_summary`` reproduces the geometric-mean claims of Section 5.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.configs import CONFIGURATION_ORDER
from repro.core.results import (
    WorkloadResult,
    geometric_mean_speedup,
    metric_table,
    speedup_table,
)


def plot_configuration_order(present: Sequence[str]) -> List[str]:
    """Column/plot order for a set of configuration names.

    The paper's five come first (in :data:`CONFIGURATION_ORDER`), then any
    user-registered scenario configurations in their given order -- shared
    by the figure tables and the report sections so both stay in agreement.
    """
    return [c for c in CONFIGURATION_ORDER if c in present] + [
        c for c in present if c not in CONFIGURATION_ORDER
    ]


def _ordered(
    table: Dict[str, Dict[str, float]],
    workload_order: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Re-key a results table in plot order (workloads, then configurations).

    Configurations outside the paper's five (user-registered scenario
    systems) follow the builtins in their original result order rather than
    being dropped.
    """
    workloads = list(workload_order) if workload_order else sorted(table)
    ordered: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        if workload not in table:
            continue
        by_config = table[workload]
        ordered[workload] = {
            config: by_config[config]
            for config in plot_configuration_order(list(by_config))
        }
    return ordered


def figure8_speedup(
    results: Iterable[WorkloadResult],
    baseline: str = "LMesh/ECM",
    workload_order: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 8: normalized speedup over the LMesh/ECM baseline."""
    return _ordered(speedup_table(results, baseline=baseline), workload_order)


def figure9_bandwidth(
    results: Iterable[WorkloadResult],
    workload_order: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 9: achieved main-memory bandwidth in TB/s."""
    return _ordered(metric_table(results, "achieved_bandwidth_tbps"), workload_order)


def figure10_latency(
    results: Iterable[WorkloadResult],
    workload_order: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 10: average L2-miss latency in nanoseconds."""
    return _ordered(metric_table(results, "average_latency_ns"), workload_order)


def figure11_power(
    results: Iterable[WorkloadResult],
    workload_order: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 11: on-chip network power in watts."""
    return _ordered(metric_table(results, "network_power_w"), workload_order)


def render_figure(
    table: Dict[str, Dict[str, float]],
    title: str,
    unit: str = "",
    width: int = 46,
) -> str:
    """Render a grouped bar chart (one group per workload) as text."""
    if width < 10:
        raise ValueError(f"chart width must be at least 10, got {width}")
    lines: List[str] = [title, "=" * len(title)]
    maximum = max(
        (value for by_config in table.values() for value in by_config.values()),
        default=0.0,
    )
    if maximum <= 0:
        maximum = 1.0
    for workload, by_config in table.items():
        lines.append(workload)
        for config, value in by_config.items():
            bar = "#" * max(1, int(round(value / maximum * width)))
            lines.append(f"  {config:<10} {bar} {value:.2f}{unit}")
        lines.append("")
    return "\n".join(lines)


def speedup_summary(
    results: Iterable[WorkloadResult],
    synthetic_names: Sequence[str],
    splash_names: Sequence[str],
) -> Dict[str, float]:
    """The Section 5 geometric-mean speedups.

    Keys mirror the paper's claims:

    * ``synthetic_ocm_over_ecm`` -- HMesh/OCM over HMesh/ECM, synthetic
      benchmarks (paper: 3.28).
    * ``synthetic_xbar_over_hmesh_ocm`` -- XBar/OCM over HMesh/OCM, synthetic
      benchmarks (paper: 2.36).
    * ``splash_ocm_over_ecm`` -- HMesh/OCM over HMesh/ECM, SPLASH-2
      (paper: 1.80).
    * ``splash_xbar_over_hmesh_ocm`` -- XBar/OCM over HMesh/OCM, SPLASH-2
      (paper: 1.44).
    * ``corona_over_baseline_*`` -- XBar/OCM over LMesh/ECM (the abstract's
      "2 to 6 times better on memory-intensive workloads").
    """
    results = list(results)
    available = {result.configuration for result in results}
    summary: Dict[str, float] = {}

    def add(key: str, numerator: str, denominator: str, workloads: Sequence[str]) -> None:
        if not workloads:
            return
        if numerator not in available or denominator not in available:
            # Partial matrices (e.g. a two-configuration quick run) simply omit
            # the ratios they cannot compute.
            return
        summary[key] = geometric_mean_speedup(
            results, numerator, denominator, workloads
        )

    add("synthetic_ocm_over_ecm", "HMesh/OCM", "HMesh/ECM", synthetic_names)
    add("synthetic_xbar_over_hmesh_ocm", "XBar/OCM", "HMesh/OCM", synthetic_names)
    add("corona_over_baseline_synthetic", "XBar/OCM", "LMesh/ECM", synthetic_names)
    add("splash_ocm_over_ecm", "HMesh/OCM", "HMesh/ECM", splash_names)
    add("splash_xbar_over_hmesh_ocm", "XBar/OCM", "HMesh/OCM", splash_names)
    add("corona_over_baseline_splash", "XBar/OCM", "LMesh/ECM", splash_names)
    return summary


#: The paper's reference values for the summary keys, used by the benchmarks
#: and the report to show measured-vs-paper side by side.
PAPER_SPEEDUP_SUMMARY = {
    "synthetic_ocm_over_ecm": 3.28,
    "synthetic_xbar_over_hmesh_ocm": 2.36,
    "splash_ocm_over_ecm": 1.80,
    "splash_xbar_over_hmesh_ocm": 1.44,
}
