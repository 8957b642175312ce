"""The Corona architecture: configuration, system assembly and replay engine.

This package is the paper's primary contribution expressed as code:

* :mod:`repro.core.config` -- the Corona design point (Table 1) and the
  architecture-level derived quantities (peak flops, bandwidths).
* :mod:`repro.core.configs` -- the five evaluated system configurations
  (XBar/OCM, HMesh/OCM, LMesh/OCM, HMesh/ECM, LMesh/ECM).
* :mod:`repro.core.system` -- the trace-driven system simulator that replays a
  workload trace through clusters, an interconnect and a memory system, with
  finite MSHRs, queues and channel bandwidths throughout.
* :mod:`repro.core.results` -- result containers and speedup/geomean analysis.
"""

from repro.core.config import CoronaConfig, CORONA_DEFAULT
from repro.core.configs import (
    SystemConfiguration,
    all_configurations,
    configuration_by_name,
    corona_configuration,
)
from repro.core.results import WorkloadResult, speedup_table
from repro.core.system import SystemSimulator, TransactionStats

__all__ = [
    "CoronaConfig",
    "CORONA_DEFAULT",
    "SystemConfiguration",
    "all_configurations",
    "configuration_by_name",
    "corona_configuration",
    "SystemSimulator",
    "TransactionStats",
    "WorkloadResult",
    "speedup_table",
]
