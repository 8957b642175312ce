"""The declarative, serializable scenario specification.

A :class:`Scenario` is a frozen dataclass tree that captures *everything the
harness can run* as plain data: which system configurations to build (by
registry name, plus :class:`~repro.core.config.CoronaConfig` overrides),
which workloads with which parameters (including sharing profiles), the
request-count scale tier, coherence settings, follow-on experiments, worker
count, user modules to import, and where to write the report and the
result sinks.

The representation is exact: ``Scenario.from_dict(s.to_dict()) == s`` for
every scenario, and the dict form is JSON-clean (lists, dicts, scalars), so
scenario files round-trip byte-stable through ``corona-repro scenario
init`` / ``validate`` / ``run``.

Every parsing or validation failure raises :class:`ScenarioError`, whose
message starts with the *path of the offending field* --
``workloads[2].sharing.fraction: ...`` -- so a typo in a 60-line scenario
file points at itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.coherence.engine import CoherenceConfig
from repro.coherence.sharing import SharingProfile
from repro.core.config import CORONA_DEFAULT, CoronaConfig
from repro.faults import FaultError, FaultSpec
from repro.obs.spec import ObservabilityError, ObservabilitySpec
from repro.trace.arrival import ArrivalError, ArrivalSpec
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


class ScenarioError(ValueError):
    """A scenario failed to parse or validate.

    ``field`` holds the dotted path of the offending field (e.g.
    ``workloads[0].sharing.fraction``); the message always starts with it.
    """

    def __init__(self, field_path: str, message: str) -> None:
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _expect_mapping(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path: str) -> List:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
    return list(value)


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a string, got {type(value).__name__}")
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _reject_unknown(data: Mapping, known: Sequence[str], path: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ScenarioError(
            f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0],
            f"unknown field; known fields: {list(known)}",
        )


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

    def corona_config(self) -> CoronaConfig:
        """The architecture config with this spec's overrides applied."""
        try:
            return CORONA_DEFAULT.with_overrides(self.overrides)
        except (ValueError, TypeError) as exc:
            raise ScenarioError("system.overrides", str(exc)) from None

    def to_dict(self) -> Dict[str, object]:
        return {
            "configurations": list(self.configurations),
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "system") -> "SystemSpec":
        data = _expect_mapping(data, path)
        _reject_unknown(data, ("configurations", "overrides"), path)
        names = _expect_list(
            data.get("configurations", list(CONFIGURATION_ORDER)),
            f"{path}.configurations",
        )
        configurations = tuple(
            _expect_str(name, f"{path}.configurations[{i}]")
            for i, name in enumerate(names)
        )
        if not configurations:
            raise ScenarioError(
                f"{path}.configurations", "at least one configuration is required"
            )
        overrides = dict(
            _expect_mapping(data.get("overrides", {}), f"{path}.overrides")
        )
        spec = cls(configurations=configurations, overrides=overrides)
        spec.corona_config()  # validate the override names/values eagerly
        return spec


def _sharing_to_dict(sharing) -> object:
    if sharing is None or isinstance(sharing, str):
        return sharing
    return asdict(sharing)


def _sharing_from_dict(value, path: str):
    if value is None:
        return None
    if isinstance(value, str):
        if value != "default":
            raise ScenarioError(
                path, f"expected 'default', a sharing object or null, got {value!r}"
            )
        return value
    data = _expect_mapping(value, path)
    try:
        return SharingProfile.from_dict(data)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, str(exc)) from None


def _arrival_from_dict(value, path: str) -> Optional[ArrivalSpec]:
    if value is None:
        return None
    data = _expect_mapping(value, path)
    try:
        return ArrivalSpec.from_dict(dict(data))
    except ArrivalError as exc:
        raise ScenarioError(f"{path}.{exc.field}", exc.reason) from None


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

    def factory_params(self) -> Dict[str, object]:
        """The params to call the registered factory with."""
        params = dict(self.params)
        if self.sharing is not None:
            params["sharing"] = self.sharing
        if self.arrival is not None:
            params["arrival"] = self.arrival
        return params

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "sharing": _sharing_to_dict(self.sharing),
            "arrival": None if self.arrival is None else self.arrival.to_dict(),
            "num_requests": self.num_requests,
        }

    @classmethod
    def from_dict(cls, data, path: str) -> "WorkloadSpec":
        if isinstance(data, str):  # shorthand: "Uniform" == {"name": "Uniform"}
            return cls(name=data)
        data = _expect_mapping(data, path)
        _reject_unknown(
            data, ("name", "params", "sharing", "arrival", "num_requests"), path
        )
        if "name" not in data:
            raise ScenarioError(f"{path}.name", "workload name is required")
        name = _expect_str(data["name"], f"{path}.name")
        params = dict(_expect_mapping(data.get("params", {}), f"{path}.params"))
        sharing = _sharing_from_dict(data.get("sharing"), f"{path}.sharing")
        arrival = _arrival_from_dict(data.get("arrival"), f"{path}.arrival")
        num_requests = data.get("num_requests")
        if num_requests is not None:
            num_requests = _expect_int(num_requests, f"{path}.num_requests")
            if num_requests < 1:
                raise ScenarioError(f"{path}.num_requests", "must be >= 1")
        return cls(
            name=name,
            params=params,
            sharing=sharing,
            arrival=arrival,
            num_requests=num_requests,
        )


_SCALE_FIELDS = (
    "tier",
    "synthetic_requests",
    "splash_fraction",
    "splash_min_requests",
    "splash_max_requests",
    "seed",
)


@dataclass(frozen=True)
class ScaleSpec:
    """A named request-count tier plus optional per-field overrides."""

    tier: str = "quick"
    synthetic_requests: Optional[int] = None
    splash_fraction: Optional[float] = None
    splash_min_requests: Optional[int] = None
    splash_max_requests: Optional[int] = None
    seed: Optional[int] = None

    def resolve(self) -> ExperimentScale:
        """The concrete :class:`ExperimentScale` this spec describes."""
        if self.tier not in SCALE_TIERS:
            raise ScenarioError(
                "scale.tier",
                f"unknown tier {self.tier!r}; known: {list(SCALE_TIERS)}",
            )
        overrides = {
            name: getattr(self, name)
            for name in _SCALE_FIELDS
            if name != "tier" and getattr(self, name) is not None
        }
        try:
            return replace(SCALE_TIERS[self.tier], **overrides)
        except ValueError as exc:
            raise ScenarioError("scale", str(exc)) from None

    def to_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in _SCALE_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "scale") -> "ScaleSpec":
        data = _expect_mapping(data, path)
        _reject_unknown(data, _SCALE_FIELDS, path)
        tier = _expect_str(data.get("tier", "quick"), f"{path}.tier")
        values: Dict[str, object] = {"tier": tier}
        for name in ("synthetic_requests", "splash_min_requests",
                     "splash_max_requests", "seed"):
            if data.get(name) is not None:
                values[name] = _expect_int(data[name], f"{path}.{name}")
        if data.get("splash_fraction") is not None:
            values["splash_fraction"] = _expect_number(
                data["splash_fraction"], f"{path}.splash_fraction"
            )
        spec = cls(**values)
        spec.resolve()  # validate tier and override values eagerly
        return spec


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered follow-on experiment (extra report section)."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data, path: str) -> "ExperimentSpec":
        if isinstance(data, str):
            return cls(name=data)
        data = _expect_mapping(data, path)
        _reject_unknown(data, ("name", "params"), path)
        if "name" not in data:
            raise ScenarioError(f"{path}.name", "experiment name is required")
        return cls(
            name=_expect_str(data["name"], f"{path}.name"),
            params=dict(_expect_mapping(data.get("params", {}), f"{path}.params")),
        )


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
        return {"report": self.report, "json": self.json, "csv": self.csv}

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "output") -> "OutputSpec":
        data = _expect_mapping(data, path)
        _reject_unknown(data, ("report", "json", "csv"), path)
        values = {}
        for name in ("report", "json", "csv"):
            if data.get(name) is not None:
                values[name] = _expect_str(data[name], f"{path}.{name}")
        return cls(**values)


def _faults_from_dict(data, path: str) -> Optional[FaultSpec]:
    if data is None:
        return None
    data = _expect_mapping(data, path)
    try:
        return FaultSpec.from_dict(data)
    except FaultError as exc:
        raise ScenarioError(f"{path}.{exc.field}", exc.reason) from None


def _observability_from_dict(data, path: str) -> Optional[ObservabilitySpec]:
    if data is None:
        return None
    data = _expect_mapping(data, path)
    try:
        return ObservabilitySpec.from_dict(data)
    except ObservabilityError as exc:
        raise ScenarioError(f"{path}.{exc.field}", exc.reason) from None


def _coherence_from_dict(data, path: str) -> Optional[CoherenceConfig]:
    if data is None:
        return None
    data = _expect_mapping(data, path)
    known = [f.name for f in fields(CoherenceConfig)]
    _reject_unknown(data, known, path)
    try:
        return CoherenceConfig(**dict(data))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, str(exc)) from None


_SCENARIO_FIELDS = (
    "format",
    "name",
    "description",
    "system",
    "workloads",
    "scale",
    "coherence",
    "faults",
    "observability",
    "experiments",
    "jobs",
    "modules",
    "output",
)


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
    experiments: Tuple[ExperimentSpec, ...] = ()
    jobs: int = 1
    modules: Tuple[str, ...] = ()
    output: OutputSpec = field(default_factory=OutputSpec)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The scenario as a JSON-clean mapping (exact round-trip)."""
        return {
            "format": SCENARIO_FORMAT,
            "name": self.name,
            "description": self.description,
            "system": self.system.to_dict(),
            "workloads": [w.to_dict() for w in self.workloads],
            "scale": self.scale.to_dict(),
            "coherence": None if self.coherence is None else asdict(self.coherence),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "observability": (
                None
                if self.observability is None
                else self.observability.to_dict()
            ),
            "experiments": [e.to_dict() for e in self.experiments],
            "jobs": self.jobs,
            "modules": list(self.modules),
            "output": self.output.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Parse a scenario, raising :class:`ScenarioError` naming any bad
        field."""
        data = _expect_mapping(data, "scenario")
        _reject_unknown(data, _SCENARIO_FIELDS, "")
        fmt = data.get("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ScenarioError(
                "format", f"unsupported scenario format {fmt!r}; "
                f"this build reads {SCENARIO_FORMAT!r}"
            )
        workloads = tuple(
            WorkloadSpec.from_dict(entry, f"workloads[{i}]")
            for i, entry in enumerate(
                _expect_list(data.get("workloads", []), "workloads")
            )
        )
        experiments = tuple(
            ExperimentSpec.from_dict(entry, f"experiments[{i}]")
            for i, entry in enumerate(
                _expect_list(data.get("experiments", []), "experiments")
            )
        )
        modules = tuple(
            _expect_str(entry, f"modules[{i}]")
            for i, entry in enumerate(
                _expect_list(data.get("modules", []), "modules")
            )
        )
        jobs = _expect_int(data.get("jobs", 1), "jobs")
        if jobs < 0:
            raise ScenarioError("jobs", "must be >= 0 (0 = every CPU)")
        return cls(
            name=_expect_str(data.get("name", "scenario"), "name"),
            description=_expect_str(data.get("description", ""), "description"),
            system=SystemSpec.from_dict(data.get("system", {})),
            workloads=workloads,
            scale=ScaleSpec.from_dict(data.get("scale", {})),
            coherence=_coherence_from_dict(data.get("coherence"), "coherence"),
            faults=_faults_from_dict(data.get("faults"), "faults"),
            observability=_observability_from_dict(
                data.get("observability"), "observability"
            ),
            experiments=experiments,
            jobs=jobs,
            modules=modules,
            output=OutputSpec.from_dict(data.get("output", {})),
        )

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
        """Check every name against the registries (after importing
        ``modules``) and return the resolved matrix; structural validation
        already happened in :meth:`from_dict` / the dataclass constructors."""
        from repro.api import registry

        self.import_modules()
        self.system.corona_config()
        self.scale.resolve()
        for index, name in enumerate(self.system.configurations):
            if name not in registry.CONFIGURATIONS:
                raise ScenarioError(
                    f"system.configurations[{index}]",
                    f"unknown configuration {name!r}; registered: "
                    f"{registry.CONFIGURATIONS.names()}",
                )
        for index, spec in enumerate(self.workloads):
            if spec.name not in registry.WORKLOADS:
                raise ScenarioError(
                    f"workloads[{index}].name",
                    f"unknown workload {spec.name!r}; registered: "
                    f"{registry.WORKLOADS.names()}",
                )
        for index, spec in enumerate(self.experiments):
            if spec.name not in registry.EXPERIMENTS:
                raise ScenarioError(
                    f"experiments[{index}].name",
                    f"unknown experiment {spec.name!r}; registered: "
                    f"{registry.EXPERIMENTS.names()}",
                )
        # Build the matrix too (workload construction only, no generation):
        # it catches what name checks cannot -- bad factory params, duplicate
        # effective workload names, cluster-count mismatches -- so a scenario
        # that validates is a scenario that runs.
        from repro.api.run import ScenarioMatrix

        return ScenarioMatrix(self)


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
