"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.harness.experiments` -- the scaling knobs that keep a
  pure-Python replay of the 5 configurations x 17 workloads tractable.
* :mod:`repro.harness.parallel` -- the one pair replay loop beneath
  :func:`repro.api.run` and the sweeps: in process at ``jobs=1``, a
  supervised worker pool otherwise (bit-identical results, wall-clock
  divided by the worker count).
* :mod:`repro.harness.report` -- the markdown report of a scenario run.
* :mod:`repro.harness.tables` -- Tables 1-4 as data plus text renderers.
* :mod:`repro.harness.figures` -- Figures 8-11 as data series plus ASCII bar
  charts, and the geometric-mean summary quoted in Section 5.
"""

from repro.harness.experiments import ExperimentScale
from repro.harness.figures import (
    figure10_latency,
    figure11_power,
    figure8_speedup,
    figure9_bandwidth,
    render_figure,
    speedup_summary,
)
from repro.harness.parallel import available_cpus
from repro.harness.tables import (
    format_table,
    table1_resource_configuration,
    table2_optical_inventory,
    table3_benchmarks,
    table4_memory_interconnects,
)

__all__ = [
    "ExperimentScale",
    "available_cpus",
    "table1_resource_configuration",
    "table2_optical_inventory",
    "table3_benchmarks",
    "table4_memory_interconnects",
    "format_table",
    "figure8_speedup",
    "figure9_bandwidth",
    "figure10_latency",
    "figure11_power",
    "render_figure",
    "speedup_summary",
]
