"""Tables 1-4 of the paper, regenerated from the models.

Each ``table*`` function returns structured data (a list of rows); the
``format_table`` helper renders any of them as aligned text for reports and
benchmark output.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.config import CoronaConfig, CORONA_DEFAULT
from repro.memory.ecm import ecm_interconnect_summary
from repro.memory.ocm import ocm_interconnect_summary
from repro.photonics.inventory import corona_inventory
from repro.trace.splash2 import SPLASH2_ORDER, SPLASH2_PROFILES
from repro.trace.synthetic import synthetic_workloads


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render rows as a fixed-width text table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {columns}"
            )
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in cells), default=0))
        for i in range(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def table1_resource_configuration(
    config: CoronaConfig = CORONA_DEFAULT,
) -> List[Tuple[str, str]]:
    """Table 1: resource configuration of the Corona design."""
    return config.resource_configuration_rows()


def table2_optical_inventory(
    config: CoronaConfig = CORONA_DEFAULT,
) -> List[Tuple[str, int, int]]:
    """Table 2: optical resource inventory (waveguides, ring resonators)."""
    return corona_inventory(config).as_rows()


def table3_benchmarks() -> List[Tuple[str, str, str]]:
    """Table 3: benchmarks, datasets and network request counts."""
    rows: List[Tuple[str, str, str]] = []
    for workload in synthetic_workloads():
        rows.append(
            (workload.name, workload.description, f"{workload.num_requests / 1e6:g} M")
        )
    for name in SPLASH2_ORDER:
        profile = SPLASH2_PROFILES[name]
        dataset = f"{profile.dataset} ({profile.default_dataset})"
        rows.append((name, dataset, f"{profile.paper_requests / 1e6:g} M"))
    return rows


def table4_memory_interconnects(
    config: CoronaConfig,
) -> List[Tuple[str, object, object]]:
    """Table 4: optical vs electrical memory interconnects of ``config``."""
    ocm = ocm_interconnect_summary(config)
    ecm = ecm_interconnect_summary(config)
    rows: List[Tuple[str, object, object]] = []
    for key in ocm:
        if key == "Interconnect power (mW/Gb/s)":
            continue
        ocm_value = ocm[key]
        ecm_value = ecm[key]
        if isinstance(ocm_value, float):
            ocm_value = f"{ocm_value:.2f}"
        if isinstance(ecm_value, float):
            ecm_value = f"{ecm_value:.2f}"
        rows.append((key, ocm_value, ecm_value))
    return rows


def render_all_tables(config: CoronaConfig = CORONA_DEFAULT) -> str:
    """All four tables as one text report."""
    sections = [
        format_table(
            ["Resource", "Value"],
            table1_resource_configuration(config),
            title="Table 1: Resource Configuration",
        ),
        format_table(
            ["Photonic Subsystem", "Waveguides", "Ring Resonators"],
            table2_optical_inventory(config),
            title="Table 2: Optical Resource Inventory",
        ),
        format_table(
            ["Benchmark", "Data Set / Description", "# Network Requests"],
            table3_benchmarks(),
            title="Table 3: Benchmarks and Configurations",
        ),
        format_table(
            ["Resource", "OCM", "ECM"],
            table4_memory_interconnects(config),
            title="Table 4: Optical vs Electrical Memory Interconnects",
        ),
    ]
    return "\n\n".join(sections)
