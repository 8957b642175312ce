"""Declarative parameter sweeps over the Scenario API.

One :class:`SweepSpec` -- a base scenario plus named axes writing value
lists into its field paths -- expands into an explicit grid of
``(point_id, axis_values, Scenario)`` points, executes through the
harness's pair loop (bit-identical across ``--jobs``),
checkpoints each completed point to an on-disk manifest (so a killed run
resumes without re-executing anything), and emits every result as a
long-form record into JSON/CSV sinks.

Quickstart::

    from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec
    from repro.sweeps import SweepAxis, SweepSpec, run_sweep

    spec = SweepSpec(
        name="gap-study",
        base=Scenario(
            system=SystemSpec(configurations=("LMesh/ECM",)),
            workloads=(WorkloadSpec(name="Uniform", num_requests=4_000),),
            scale=ScaleSpec(seed=1),
        ),
        axes=(
            SweepAxis(name="gap",
                      path="workloads[0].params.mean_gap_cycles",
                      values=(20.0, 40.0, 80.0)),
            SweepAxis(name="configuration",
                      path="system.configurations",
                      values=(["LMesh/ECM"], ["XBar/OCM"])),
        ),
    )
    outcome = run_sweep(spec, directory="sweep-out", jobs=0)
    for record in outcome.records:
        print(record.point_id, record.result.achieved_bandwidth_tbps)

or, file-driven: ``corona-repro sweep run spec.json --directory out``
(``sweep expand`` previews the grid, ``sweep status`` reports progress,
re-running resumes).  Importing this package registers the stock sweeps
(``coherence-sweep``, ``sensitivity``, ``latency-throughput``) in
:data:`repro.api.registry.SWEEPS`.
"""

from repro.api.registry import SWEEPS, RegistryError, register_sweep
from repro.sweeps.engine import (
    MANIFEST_NAME,
    POINTS_NAME,
    SweepRecord,
    SweepRunResult,
    SweepStatus,
    TraceCache,
    run_sweep,
    spec_digest,
    sweep_status,
    workload_signature,
)
from repro.sweeps.library import (
    coherence_sweep_spec,
    latency_throughput_sweep_spec,
    sensitivity_sweep_spec,
)
from repro.sweeps.aggregate import (
    aggregation_report_section,
    axis_divergence_rows,
    axis_value_geomeans,
    detect_crossovers,
)
from repro.sweeps.saturation import detect_knee, saturation_rows
from repro.sweeps.spec import (
    SWEEP_FORMAT,
    SweepAxis,
    SweepError,
    SweepPoint,
    SweepSpec,
    expand,
    load_sweep,
    point_id_for,
)


def build_registered_sweep(name: str, **params) -> SweepSpec:
    """Build a registered sweep spec by name (e.g. ``"coherence-sweep"``).

    Raises :class:`~repro.api.registry.RegistryError` when the factory
    returns anything but a :class:`SweepSpec`.
    """
    spec = SWEEPS.build(name, **params)
    if not isinstance(spec, SweepSpec):
        raise RegistryError(
            f"sweep factory {name!r} returned {type(spec).__name__}, "
            f"expected SweepSpec"
        )
    return spec


__all__ = [
    # spec
    "SWEEP_FORMAT",
    "SweepAxis",
    "SweepError",
    "SweepPoint",
    "SweepSpec",
    "expand",
    "load_sweep",
    "point_id_for",
    # engine
    "MANIFEST_NAME",
    "POINTS_NAME",
    "SweepRecord",
    "SweepRunResult",
    "SweepStatus",
    "TraceCache",
    "run_sweep",
    "spec_digest",
    "sweep_status",
    "workload_signature",
    # registry
    "SWEEPS",
    "register_sweep",
    "build_registered_sweep",
    # stock specs
    "coherence_sweep_spec",
    "sensitivity_sweep_spec",
    "latency_throughput_sweep_spec",
    # saturation analysis
    "detect_knee",
    "saturation_rows",
    # axis aggregation
    "aggregation_report_section",
    "axis_divergence_rows",
    "axis_value_geomeans",
    "detect_crossovers",
]
