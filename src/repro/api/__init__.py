"""The stable, declarative Scenario API.

This package is the supported surface for driving the reproduction
programmatically.  Three pieces:

* **Registries** (:mod:`repro.api.registry`) -- ``@register_configuration``,
  ``@register_workload`` and ``@register_sweep`` decorators over
  name -> factory tables, pre-seeded with the paper's five systems and its
  17 workloads (importing :mod:`repro.sweeps` adds the stock sweeps).  User
  modules add entries without touching repro source.
* **Scenario spec** (:mod:`repro.api.scenario`) -- a frozen dataclass tree
  with an exact ``to_dict``/``from_dict`` JSON round-trip and validation
  errors that name the offending field.
* **``run()``** (:mod:`repro.api.run`) -- the single entry point: resolves a
  scenario against the registries, runs its matrix (in process or on a
  worker pool), streams per-pair results, and writes the markdown/JSON/CSV
  sinks.  A grid of scenarios is a :class:`repro.sweeps.SweepSpec`.

Quickstart::

    from repro.api import Scenario, SystemSpec, WorkloadSpec, run

    scenario = Scenario(
        name="xbar-uniform",
        system=SystemSpec(configurations=("LMesh/ECM", "XBar/OCM")),
        workloads=(WorkloadSpec(name="Uniform"),),
    )
    result = run(scenario, on_result=lambda r: print(r.configuration))
    print(result.report.to_markdown())

or, file-driven (the CLI's ``corona-repro run scenario.json``)::

    from repro.api import load_scenario, run

    result = run(load_scenario("scenario.json"))
"""

from repro.api.registry import (
    CONFIGURATIONS,
    SWEEPS,
    WORKLOADS,
    Registry,
    RegistryCollisionError,
    RegistryError,
    UnknownEntryError,
    build_configuration,
    build_workload,
    register_configuration,
    register_sweep,
    register_workload,
)
from repro.api.fields import set_field
from repro.api.run import (
    ScenarioMatrix,
    ScenarioResult,
    build_matrix,
    run,
)
from repro.api.scenario import (
    SCALE_TIERS,
    SCENARIO_FORMAT,
    OutputSpec,
    ScaleSpec,
    Scenario,
    ScenarioError,
    SystemSpec,
    WorkloadSpec,
    load_scenario,
)
from repro.trace.arrival import ArrivalSpec

__all__ = [
    # registries
    "CONFIGURATIONS",
    "WORKLOADS",
    "SWEEPS",
    "Registry",
    "RegistryError",
    "RegistryCollisionError",
    "UnknownEntryError",
    "register_configuration",
    "register_workload",
    "register_sweep",
    "build_configuration",
    "build_workload",
    # scenario spec
    "Scenario",
    "ScenarioError",
    "SystemSpec",
    "WorkloadSpec",
    "ArrivalSpec",
    "ScaleSpec",
    "OutputSpec",
    "SCALE_TIERS",
    "SCENARIO_FORMAT",
    "load_scenario",
    "set_field",
    # execution
    "run",
    "build_matrix",
    "ScenarioMatrix",
    "ScenarioResult",
]
