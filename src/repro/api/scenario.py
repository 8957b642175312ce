"""The declarative, serializable scenario specification.

A :class:`Scenario` is a frozen dataclass tree that captures *everything the
harness can run* as plain data: which system configurations to build (by
registry name, plus :class:`~repro.core.config.CoronaConfig` overrides),
which workloads with which parameters (including sharing profiles), the
request-count scale tier, coherence settings, worker count, user modules
to import, and where to write the report and the result sinks.  A scenario
is one matrix; a grid of scenarios is a :class:`~repro.sweeps.SweepSpec`.

The representation is exact: ``Scenario.from_dict(s.to_dict()) == s`` for
every scenario, and the dict form is JSON-clean (lists, dicts, scalars), so
scenario files round-trip byte-stable through ``corona-repro scenario
init`` / ``validate`` / ``run``.

Every node is read and written by :mod:`repro.spec` from its field
annotations, and every parsing or validation failure -- in any node, the
``system.overrides`` included -- raises :class:`ScenarioError`, whose
message starts with the *full path of the offending field*
(``workloads[2].sharing.fraction: ...``, ``system.overrides.cluster.
l2_mshrs: ...``), so a typo in a 60-line scenario file points at itself.
An integer field also takes a whole-number float (``2.0`` reads as ``2``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, Union

from repro.coherence.engine import CoherenceConfig
from repro.coherence.sharing import SharingProfile
from repro.core.config import CORONA_DEFAULT, CoronaConfig
from repro.faults import FaultSpec
from repro.obs.spec import ObservabilitySpec
from repro.spec import ScenarioError, check_fields, read, write
from repro.trace.arrival import ArrivalSpec
from repro.core.configs import CONFIGURATION_ORDER
from repro.harness.experiments import (
    FULL_SCALE,
    PAPER_SCALE,
    QUICK_SCALE,
    ExperimentScale,
)

if TYPE_CHECKING:
    from repro.api.run import ScenarioMatrix

#: Format tag written into scenario files (ignored on read when absent).
SCENARIO_FORMAT = "corona-scenario/1"

#: Named request-count tiers a scenario's ``scale.tier`` may pick.
SCALE_TIERS: Dict[str, ExperimentScale] = {
    "quick": QUICK_SCALE,
    "default": ExperimentScale(),
    "full": FULL_SCALE,
    "paper": PAPER_SCALE,
}


def untag(data, tag: str, kind: str):
    """``data`` without its ``format`` key, which must be ``tag`` if present."""
    if not isinstance(data, Mapping) or "format" not in data:
        return data
    data = dict(data)
    found = data.pop("format")
    if found != tag:
        raise ScenarioError(
            "format",
            f"unsupported {kind} format {found!r}; this build reads {tag!r}",
        )
    return data


# ---------------------------------------------------------------------------
# Spec nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """Which systems to build, and how to re-parameterize the architecture.

    ``configurations`` are configuration-registry names (the paper's five by
    default); ``overrides`` maps :class:`CoronaConfig` field names to new
    values (``cluster``/``core`` accept nested mappings) and applies to every
    configuration of the scenario.
    """

    configurations: Tuple[str, ...] = tuple(CONFIGURATION_ORDER)
    overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.configurations:
            raise ScenarioError(
                "configurations", "at least one configuration is required"
            )
        self.corona_config()  # a bad override fails here, with its path

    def corona_config(self) -> CoronaConfig:
        """The architecture config with this spec's overrides applied."""
        return CORONA_DEFAULT.with_overrides(self.overrides)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload of the scenario.

    ``name`` is a workload-registry name; ``params`` is passed verbatim to
    the registered factory (``mean_gap_cycles``, ``hot_cluster``, a ``name``
    /``label`` rename, ...).  ``sharing`` is ``None`` (off), ``"default"``
    (the workload's calibrated profile) or an explicit profile; it is passed
    to the factory as its ``sharing`` parameter.  ``arrival`` is ``None``
    (closed-loop) or an :class:`~repro.trace.arrival.ArrivalSpec` making the
    workload open-loop; it too is passed to the factory.  ``num_requests``
    overrides the scale tier's request count for this workload only.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    sharing: Optional[Union[str, SharingProfile]] = None
    arrival: Optional[ArrivalSpec] = None
    num_requests: Optional[int] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if isinstance(self.sharing, str) and self.sharing != "default":
            raise ScenarioError(
                "sharing",
                f"expected 'default', a sharing object or null, got "
                f"{self.sharing!r}",
            )
        if self.num_requests is not None and self.num_requests < 1:
            raise ScenarioError("num_requests", "must be >= 1")

    @staticmethod
    def _decode(data):
        # Shorthand: "Uniform" == {"name": "Uniform"}.
        return {"name": data} if isinstance(data, str) else data

    def factory_params(self) -> Dict[str, object]:
        """The params to call the registered factory with."""
        params = dict(self.params)
        if self.sharing is not None:
            params["sharing"] = self.sharing
        if self.arrival is not None:
            params["arrival"] = self.arrival
        return params

    def to_dict(self) -> Dict[str, object]:
        return write(self)


@dataclass(frozen=True)
class ScaleSpec:
    """A named request-count tier plus optional per-field overrides."""

    tier: str = "quick"
    synthetic_requests: Optional[int] = None
    splash_fraction: Optional[float] = None
    splash_min_requests: Optional[int] = None
    splash_max_requests: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_fields(self)
        self.resolve()  # an unknown tier or a bad count fails here

    def resolve(self) -> ExperimentScale:
        """The concrete :class:`ExperimentScale` this spec describes."""
        if self.tier not in SCALE_TIERS:
            raise ScenarioError(
                "tier", f"unknown tier {self.tier!r}; known: {list(SCALE_TIERS)}"
            )
        overrides = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "tier" and getattr(self, f.name) is not None
        }
        return replace(SCALE_TIERS[self.tier], **overrides)


@dataclass(frozen=True)
class OutputSpec:
    """Where to write the run's artefacts (all optional).

    ``report`` is the markdown report; ``json``/``csv`` are the machine
    sinks carrying every :class:`~repro.core.results.WorkloadResult` field.
    :meth:`derived` fills the machine sinks in next to the report.
    """

    report: Optional[str] = None
    json: Optional[str] = None
    csv: Optional[str] = None

    def __post_init__(self) -> None:
        check_fields(self)

    def derived(self) -> "OutputSpec":
        """JSON/CSV paths next to the report for any sink not set."""
        if self.report is None:
            return self
        base = Path(self.report)
        return OutputSpec(
            report=self.report,
            json=self.json or str(base.with_suffix(".results.json")),
            csv=self.csv or str(base.with_suffix(".results.csv")),
        )

    def to_dict(self) -> Dict[str, object]:
        return write(self)


@dataclass(frozen=True)
class Scenario:
    """A complete, serializable description of one harness run.

    An empty ``workloads`` tuple means *every registered workload* in
    registry (= paper plot) order -- which is exactly the evaluation
    matrix.  ``modules`` are imported before names are resolved, in the
    parent and in worker processes, so they may register custom
    configurations and workloads.
    """

    name: str = "scenario"
    description: str = ""
    system: SystemSpec = field(default_factory=SystemSpec)
    workloads: Tuple[WorkloadSpec, ...] = ()
    scale: ScaleSpec = field(default_factory=ScaleSpec)
    coherence: Optional[CoherenceConfig] = None
    faults: Optional[FaultSpec] = None
    observability: Optional[ObservabilitySpec] = None
    jobs: int = 1
    modules: Tuple[str, ...] = ()
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.jobs < 0:
            raise ScenarioError("jobs", "must be >= 0 (0 = every CPU)")
        for index, module in enumerate(self.modules):
            if not all(part.isidentifier() for part in module.split(".")):
                raise ScenarioError(
                    f"modules[{index}]",
                    f"expected a dotted module name, got {module!r}",
                )

    # -- serialization -------------------------------------------------------
    @staticmethod
    def _decode(data):
        return untag(data, SCENARIO_FORMAT, "scenario")

    @staticmethod
    def _encode(data):
        return {"format": SCENARIO_FORMAT, **data}

    def to_dict(self) -> Dict[str, object]:
        """The scenario as a JSON-clean mapping (exact round-trip)."""
        return write(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Parse a scenario, raising :class:`ScenarioError` naming any bad
        field."""
        return read(cls, data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def with_field(self, path: str, value) -> "Scenario":
        """A copy with ``value`` written into field ``path``.

        ``path`` is the same dotted/indexed syntax sweep axes use --
        ``workloads[0].params.window``, ``system.configurations``,
        ``workloads[*].arrival.rate_rps`` (the ``[*]`` wildcard fans out
        over every element) -- so programmatic overrides are validated
        exactly like sweep points: the result is re-parsed through
        :meth:`from_dict` and any bad path or value raises
        :class:`ScenarioError` naming the offending field.
        """
        from repro.api.fields import set_field

        data = self.to_dict()
        set_field(data, path, value)
        return Scenario.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    # -- registry-aware validation ------------------------------------------
    def import_modules(self) -> None:
        """Import the scenario's user modules (registering their entries)."""
        import importlib

        for index, module in enumerate(self.modules):
            try:
                importlib.import_module(module)
            except ImportError as exc:
                raise ScenarioError(
                    f"modules[{index}]", f"cannot import {module!r}: {exc}"
                ) from None

    def validate(self) -> ScenarioMatrix:
        """Resolve the scenario against the registries (after importing
        ``modules``) and return its matrix.

        Structural validation already happened in :meth:`from_dict` / the
        dataclass constructors.  Building the matrix constructs every
        configuration and workload (no trace generation), so unknown names,
        bad factory params, duplicate effective workload names and
        cluster-count mismatches fail here: a scenario that validates is a
        scenario that runs.
        """
        from repro.api.run import build_matrix

        return build_matrix(self)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a scenario JSON file, raising :class:`ScenarioError` on bad
    JSON or a bad field."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read scenario file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"not valid JSON: {exc}") from None
    return Scenario.from_dict(data)
