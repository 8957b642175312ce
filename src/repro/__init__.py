"""repro -- a reproduction of "Corona: System Implications of Emerging
Nanophotonic Technology" (Vantrease et al., ISCA 2008).

The package implements the Corona many-core architecture study end to end:

* the Table 2 optical inventory and the photonic link and power budgets
  (:mod:`repro.photonics`);
* the optical crossbar, optical token arbitration, broadcast bus and the
  electrical mesh baselines (:mod:`repro.network`);
* optically and electrically connected memory systems (:mod:`repro.memory`);
* cache, coherence, core and cluster substrates (:mod:`repro.cache`,
  :mod:`repro.cores`);
* synthetic and SPLASH-2 workload models (:mod:`repro.trace`);
* power and area models (:mod:`repro.power`);
* the Corona system assembly and trace-driven simulator (:mod:`repro.core`);
* the experiment harness that regenerates the paper's tables and figures
  (:mod:`repro.harness`).

Quickstart::

    from repro import simulate_workload, configuration_by_name, uniform_workload

    result = simulate_workload(
        configuration_by_name("XBar/OCM"),
        uniform_workload(),
        num_requests=20_000,
    )
    print(result.execution_time_s, result.achieved_bandwidth_tbps)
"""

from repro.coherence import CoherenceConfig, SharingProfile
from repro.core.config import CoronaConfig, CORONA_DEFAULT
from repro.core.configs import (
    SystemConfiguration,
    all_configurations,
    configuration_by_name,
)
from repro.core.results import (
    WorkloadResult,
    geometric_mean_speedup,
    metric_table,
    speedup_table,
)
from repro.core.system import SystemSimulator, simulate_workload
from repro.trace.splash2 import splash2_workload, splash2_workloads
from repro.trace.synthetic import (
    bit_reversal_workload,
    hot_spot_workload,
    neighbor_workload,
    synthetic_workloads,
    tornado_workload,
    transpose_workload,
    uniform_workload,
)

__version__ = "1.1.0"

__all__ = [
    "CoronaConfig",
    "CORONA_DEFAULT",
    "SystemConfiguration",
    "all_configurations",
    "configuration_by_name",
    "SystemSimulator",
    "simulate_workload",
    "WorkloadResult",
    "speedup_table",
    "metric_table",
    "geometric_mean_speedup",
    "CoherenceConfig",
    "SharingProfile",
    "uniform_workload",
    "hot_spot_workload",
    "tornado_workload",
    "transpose_workload",
    "bit_reversal_workload",
    "neighbor_workload",
    "synthetic_workloads",
    "splash2_workload",
    "splash2_workloads",
    "__version__",
]
