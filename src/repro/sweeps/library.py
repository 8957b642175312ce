"""Stock sweep specs: the built-in studies expressed declaratively.

Importing :mod:`repro.sweeps` registers these under ``@register_sweep``, so
``corona-repro sweep run coherence-sweep`` (or ``sensitivity``,
``latency-throughput``) runs them by name, and
``run_sweep(coherence_sweep_spec(...))`` runs the same grid from code (its
per-pair results are pinned by golden digests).  The sweep report carries
each study's own table: the coherence cost table for coherence-enabled
records, the knee table for open-loop ones.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.api.registry import register_sweep
from repro.api.scenario import (
    OutputSpec,
    ScaleSpec,
    Scenario,
    SystemSpec,
    WorkloadSpec,
)
from repro.coherence.engine import CoherenceConfig
from repro.coherence.sharing import SharingProfile
from repro.core.config import CORONA_DEFAULT
from repro.sweeps.spec import SweepAxis, SweepSpec
from repro.trace.arrival import ArrivalSpec

#: Configurations the coherence sweep compares by default: the
#: all-electrical baseline, the high-performance mesh, and the Corona design
#: (the only one with the broadcast bus).
COHERENCE_SWEEP_CONFIGURATIONS = ("LMesh/ECM", "HMesh/ECM", "XBar/OCM")

#: Sharing fractions swept by default (0 doubles as the no-coherence control).
COHERENCE_SWEEP_FRACTIONS = (0.0, 0.1, 0.3, 0.5)


def coherence_sweep_spec(
    fractions: Sequence[float] = COHERENCE_SWEEP_FRACTIONS,
    configurations: Sequence[str] = COHERENCE_SWEEP_CONFIGURATIONS,
    num_requests: int = 8_000,
    seed: int = 1,
    coherence: Optional[CoherenceConfig] = None,
    sharing_kwargs: Optional[Mapping[str, object]] = None,
    overrides: Optional[Mapping[str, object]] = None,
    modules: Sequence[str] = (),
    jobs: int = 1,
    output: OutputSpec = OutputSpec(),
) -> SweepSpec:
    """The sharing-fraction sweep as a declarative grid.

    One point per (sharing fraction, configuration) pair -- the fraction
    axis zips with a label axis renaming the workload ``Uniform s=<f>``,
    and the configuration axis rewrites ``system.configurations`` one name
    at a time.  Points sharing a fraction share a workload signature, so
    the engine generates each fraction's trace once.
    """
    overrides = dict(overrides or {})
    params: dict = {"name": f"Uniform s={fractions[0]:g}"}
    if overrides:
        # Trace shape follows the overridden architecture.
        params["num_clusters"] = CORONA_DEFAULT.with_overrides(
            overrides
        ).num_clusters
    base = Scenario(
        name="coherence-sweep-base",
        description="one (fraction, configuration) point of the grid",
        system=SystemSpec(
            configurations=(configurations[0],), overrides=overrides
        ),
        workloads=(
            WorkloadSpec(
                name="Uniform",
                params=params,
                sharing=SharingProfile(
                    fraction=fractions[0], **dict(sharing_kwargs or {})
                ),
                num_requests=num_requests,
            ),
        ),
        scale=ScaleSpec(tier="quick", seed=seed),
        coherence=coherence or CoherenceConfig(),
        modules=tuple(modules),
    )
    return SweepSpec(
        name="coherence-sweep",
        description=(
            "Sharing-fraction sweep of a Uniform workload: broadcast-bus "
            "invalidation delivery (photonic) vs per-sharer unicasts "
            "(electrical meshes)."
        ),
        base=base,
        axes=(
            SweepAxis(
                name="fraction",
                path="workloads[0].sharing.fraction",
                values=tuple(fractions),
            ),
            SweepAxis(
                name="label",
                path="workloads[0].params.name",
                values=tuple(f"Uniform s={f:g}" for f in fractions),
                zip_with="fraction",
            ),
            SweepAxis(
                name="configuration",
                path="system.configurations",
                values=tuple([name] for name in configurations),
            ),
        ),
        jobs=jobs,
        output=output,
    )


@register_sweep("coherence-sweep")
def _registered_coherence_sweep(**params) -> SweepSpec:
    """Sharing-fraction coherence-cost grid (see :func:`coherence_sweep_spec`)."""
    return coherence_sweep_spec(**params)


def sensitivity_sweep_spec(
    depths: Sequence[int] = (1, 2, 4, 8, 16),
    configuration: str = "XBar/OCM",
    num_requests: int = 8_000,
    seed: int = 1,
    jobs: int = 1,
    output: OutputSpec = OutputSpec(),
) -> SweepSpec:
    """The memory-level-parallelism half of the sensitivity study as a grid.

    Sweeps the per-thread outstanding-miss window of a Uniform replay on
    one configuration.  The other architectural knobs are
    :class:`~repro.core.config.CoronaConfig` fields, which a
    ``system.overrides.*`` axis reaches (``examples/sensitivity_study.py``
    sweeps ``crossbar_waveguides_per_channel``); the physical link-budget
    sweeps have no replay, so they stay functions that ``corona-repro
    sensitivity`` prints.
    """
    base = Scenario(
        name="sensitivity-base",
        description="one window-depth point of the sensitivity grid",
        system=SystemSpec(configurations=(configuration,)),
        workloads=(
            WorkloadSpec(
                name="Uniform",
                params={"window": depths[0]},
                num_requests=num_requests,
            ),
        ),
        scale=ScaleSpec(tier="quick", seed=seed),
    )
    return SweepSpec(
        name="sensitivity",
        description=(
            "Memory-level-parallelism sensitivity: achieved bandwidth vs "
            "per-thread outstanding-miss window."
        ),
        base=base,
        axes=(
            SweepAxis(
                name="window",
                path="workloads[0].params.window",
                values=tuple(depths),
            ),
        ),
        jobs=jobs,
        output=output,
    )


@register_sweep("sensitivity")
def _registered_sensitivity_sweep(**params) -> SweepSpec:
    """Window-depth (MLP) sensitivity grid on the Corona crossbar."""
    return sensitivity_sweep_spec(**params)


#: Requests per ladder point by scale tier.  Small counts are fine here:
#: the saturation test is schedule slip (did the replay keep up with the
#: arrival schedule), which is robust at a few thousand requests, and a
#: ladder replays every point on every configuration.
SATURATION_REQUESTS = {
    "quick": 2_000,
    "default": 8_000,
    "full": 20_000,
    "paper": 60_000,
}

#: Default offered-load ladder (nominal aggregate requests/second): from
#: far below either baseline's capacity to well past the crossbar's.
SATURATION_LADDER_START = 1e9
SATURATION_LADDER_GROWTH = 2.0
SATURATION_LADDER_POINTS = 9

#: The quick tier trades ladder resolution for wall clock: five points with
#: 4x growth still bracket both stock configurations' knees.
SATURATION_QUICK_GROWTH = 4.0
SATURATION_QUICK_POINTS = 5


def latency_throughput_sweep_spec(
    rates: Optional[Sequence[float]] = None,
    configurations: Sequence[str] = ("XBar/OCM", "LMesh/ECM"),
    process: str = "poisson",
    burst_rate_rps: float = 0.0,
    burst_fraction: float = 0.0,
    scale: str = "default",
    num_requests: Optional[int] = None,
    seed: int = 1,
    jobs: int = 1,
    output: OutputSpec = OutputSpec(),
) -> SweepSpec:
    """The open-loop latency-throughput saturation study as a grid.

    Replays a Uniform workload under an open-loop arrival process
    (``poisson`` by default; ``mmpp`` with the burst parameters) at a
    geometric ladder of offered loads on each configuration.  The rate axis
    rewrites ``workloads[0].arrival.rate_rps``, so every ladder point
    regenerates its arrival schedule deterministically; the engine's report
    appends the knee table (:mod:`repro.sweeps.saturation`) and the
    long-form CSV carries ``offered_rps``/``achieved_rps``/``saturated``
    and the sojourn percentiles per point.

    ``scale`` picks the per-point request count (:data:`SATURATION_REQUESTS`)
    and, for ``"quick"``, a coarser default ladder; explicit ``rates`` or
    ``num_requests`` override either.
    """
    if scale not in SATURATION_REQUESTS:
        raise ValueError(
            f"unknown scale {scale!r}; known: {sorted(SATURATION_REQUESTS)}"
        )
    if rates is None:
        if scale == "quick":
            growth, points = SATURATION_QUICK_GROWTH, SATURATION_QUICK_POINTS
        else:
            growth, points = SATURATION_LADDER_GROWTH, SATURATION_LADDER_POINTS
        rates = tuple(
            SATURATION_LADDER_START * growth**index for index in range(points)
        )
    rates = tuple(float(rate) for rate in rates)
    requests = (
        num_requests if num_requests is not None else SATURATION_REQUESTS[scale]
    )
    base = Scenario(
        name="latency-throughput-base",
        description="one (offered load, configuration) point of the ladder",
        system=SystemSpec(configurations=(configurations[0],)),
        workloads=(
            WorkloadSpec(
                name="Uniform",
                arrival=ArrivalSpec(
                    process=process,
                    rate_rps=rates[0],
                    burst_rate_rps=burst_rate_rps,
                    burst_fraction=burst_fraction,
                ),
                num_requests=requests,
            ),
        ),
        scale=ScaleSpec(tier="quick", seed=seed),
    )
    return SweepSpec(
        name="latency-throughput",
        description=(
            "Open-loop saturation study: offered load swept geometrically "
            "past the knee; sojourn percentiles and achieved throughput "
            "per point, knee table in the report."
        ),
        base=base,
        axes=(
            SweepAxis(
                name="rate_rps",
                path="workloads[0].arrival.rate_rps",
                values=rates,
            ),
            SweepAxis(
                name="configuration",
                path="system.configurations",
                values=tuple([name] for name in configurations),
            ),
        ),
        jobs=jobs,
        output=output,
    )


@register_sweep("latency-throughput")
def _registered_latency_throughput_sweep(**params) -> SweepSpec:
    """Open-loop offered-load ladder with knee detection per configuration."""
    return latency_throughput_sweep_spec(**params)
