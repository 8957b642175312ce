"""Markdown report generation for the reproduction.

:class:`ReproductionReport` renders a finished scenario run
(:func:`repro.api.run` builds one for every run) as a self-contained
markdown document with every table, every figure (as a data table plus an
ASCII chart), the geometric-mean summary against the paper's values, and the
run's provenance (scale, seed, wall-clock cost).  A scenario's
``output.report`` sink writes it to disk, and ``examples/reproduce_paper.py``
prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from repro.core.results import WorkloadResult
from repro.harness.figures import (
    PAPER_SPEEDUP_SUMMARY,
    figure8_speedup,
    figure9_bandwidth,
    figure10_latency,
    figure11_power,
    plot_configuration_order,
    render_figure,
    speedup_summary,
)
from repro.harness.tables import render_all_tables

if TYPE_CHECKING:
    from repro.api.run import ScenarioMatrix


def _markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a GitHub-flavoured markdown table."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _figure_section(
    title: str,
    table: Dict[str, Dict[str, float]],
    unit: str,
    precision: int = 2,
) -> str:
    """One figure as a markdown table plus an ASCII chart in a code block.

    Column order: the paper's five configurations first, then any
    user-registered (scenario) configurations in result order.
    """
    present: List[str] = []
    for by_config in table.values():
        for name in by_config:
            if name not in present:
                present.append(name)
    configurations = plot_configuration_order(present)
    rows = [
        [workload] + [f"{table[workload].get(c, float('nan')):.{precision}f}"
                      for c in configurations]
        for workload in table
    ]
    chart = render_figure(table, title=title, unit=unit)
    return "\n".join(
        [
            f"## {title}",
            "",
            _markdown_table(["Workload"] + configurations, rows),
            "",
            "```",
            chart,
            "```",
            "",
        ]
    )


@dataclass
class ReproductionReport:
    """A complete, renderable record of one evaluation run."""

    matrix: ScenarioMatrix
    results: List[WorkloadResult]
    wall_clock_seconds: float = 0.0

    def summary(self) -> Dict[str, float]:
        return speedup_summary(
            self.results, self.matrix.synthetic_names(), self.matrix.splash_names()
        )

    def _speedup_baseline(self) -> str:
        """Figure 8's normalization baseline, tolerant of filtered matrices.

        The paper normalizes against LMesh/ECM; when a ``--configs`` filter
        removed it, fall back to the first configuration present so partial
        runs still render (every speedup is then relative to that one).
        """
        names = list(self.matrix.configuration_names)
        if "LMesh/ECM" in names or not names:
            return "LMesh/ECM"
        return names[0]

    def to_markdown(self) -> str:
        order = self.matrix.workload_names()
        sections: List[str] = []
        sections.append("# Corona reproduction report\n")
        sections.append(
            "Generated by `repro.harness.report`.  "
            f"{self.matrix.run_count()} simulations "
            f"({len(self.matrix.configurations())} configurations x "
            f"{len(self.matrix.workloads())} workloads), "
            f"seed {self.matrix.scale.seed}, "
            f"{self.matrix.scale.synthetic_requests:,} requests per synthetic "
            f"workload, wall clock {self.wall_clock_seconds:.1f} s.\n"
        )

        sections.append("## Tables 1-4 (design parameters)\n")
        sections.append("```\n" + render_all_tables() + "\n```\n")

        baseline = self._speedup_baseline()
        sections.append(
            _figure_section(
                f"Figure 8: Normalized Speedup (over {baseline})",
                figure8_speedup(
                    self.results, baseline=baseline, workload_order=order
                ),
                unit="x",
            )
        )
        sections.append(
            _figure_section(
                "Figure 9: Achieved Bandwidth (TB/s)",
                figure9_bandwidth(self.results, workload_order=order),
                unit=" TB/s",
            )
        )
        sections.append(
            _figure_section(
                "Figure 10: Average L2 Miss Latency (ns)",
                figure10_latency(self.results, workload_order=order),
                unit=" ns",
                precision=1,
            )
        )
        sections.append(
            _figure_section(
                "Figure 11: On-chip Network Power (W)",
                figure11_power(self.results, workload_order=order),
                unit=" W",
                precision=1,
            )
        )

        summary = self.summary()
        rows = []
        for key, value in summary.items():
            paper = PAPER_SPEEDUP_SUMMARY.get(key)
            rows.append([key, f"{value:.2f}", f"{paper:.2f}" if paper else "-"])
        sections.append("## Section 5 geometric-mean summary\n")
        sections.append(_markdown_table(["Quantity", "Measured", "Paper"], rows))
        sections.append("")
        return "\n".join(sections)
