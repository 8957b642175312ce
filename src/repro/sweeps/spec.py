"""The declarative sweep specification: one spec, many scenarios.

A :class:`SweepSpec` is a frozen, JSON-round-tripping description of a
parameter-grid study over the Scenario API: a *base* scenario plus named
*axes*, each of which writes a list of values into one field path of the
base -- ``system.overrides.num_clusters``, ``workloads[0].params.window``,
``workloads[*].sharing.fraction``, ``scale.seed``, ``coherence.
broadcast_threshold``, ``system.configurations``...  Axes combine as a
cartesian product by default; an axis carrying ``zip`` advances in lockstep
with the named axis instead (the two must be equally long), which is how a
varying parameter and its human-readable label travel together.

:func:`expand` turns a spec into an explicit list of
:class:`SweepPoint`\\ s -- ``(point_id, axis_values, scenario)`` -- with
deterministic, filesystem-safe point ids (an expansion-order index plus an
``axis=value`` slug), the unit the execution engine schedules, checkpoints
and resumes.

Both nodes are read and written by :mod:`repro.spec`, like the scenario
they wrap.  Every parse, path or combination error raises
:class:`SweepError` whose message starts with the offending field path
(``axes[2].values: ...``, ``base.system.overrides.cluster.l2_mshrs: ...``),
exactly like :class:`~repro.api.scenario.ScenarioError` does for scenarios.
"""

from __future__ import annotations

import copy
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.scenario import OutputSpec, Scenario, ScenarioError, untag
from repro.spec import check_fields, read, write

#: Format tag written into sweep spec files.
SWEEP_FORMAT = "corona-sweep/1"


class SweepError(ScenarioError):
    """A sweep spec failed to parse, validate or expand.

    ``field`` holds the dotted path of the offending field (e.g.
    ``axes[1].values``); the message always starts with it.  Subclasses
    :class:`~repro.api.scenario.ScenarioError` so callers (the CLI) handle
    scenario-level and sweep-level failures uniformly.
    """


# ---------------------------------------------------------------------------
# Field paths -- the machinery lives in repro.api.fields (it is the public
# Scenario.with_field / set_field implementation); these wrappers bind the
# sweep-level error class so every path failure raises SweepError.
# ---------------------------------------------------------------------------

from repro.api.fields import PathToken  # noqa: E402,F401  (re-exported)
from repro.api.fields import apply_value as _apply_value_any  # noqa: E402
from repro.api.fields import concrete_paths as _concrete_paths_any  # noqa: E402
from repro.api.fields import parse_path as _parse_path_any  # noqa: E402
from repro.api.fields import render_tokens as _render_tokens  # noqa: E402


def parse_path(path: str, where: str) -> Tuple[PathToken, ...]:
    """Parse a dotted field path into tokens, naming ``where`` on errors."""
    return _parse_path_any(path, where, SweepError)


def _concrete_paths(
    data: Mapping, tokens: Sequence[PathToken], path: str, where: str
) -> List[Tuple[PathToken, ...]]:
    return _concrete_paths_any(data, tokens, path, where, SweepError)


def _apply_value(
    data: Dict, tokens: Sequence[PathToken], value: object, path: str, where: str
) -> None:
    _apply_value_any(data, tokens, value, path, where, SweepError)


# ---------------------------------------------------------------------------
# Spec nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepAxis:
    """One named axis of the grid.

    ``path`` is the scenario field the axis writes (dotted, with ``[i]``
    list indices and ``[*]`` for every entry); ``values`` are the JSON-clean
    values swept over it.  ``zip_with`` (``"zip"`` on disk) names an
    *earlier* axis to advance in lockstep with instead of crossing
    cartesianly.
    """

    name: str
    path: str
    values: Tuple[object, ...] = ()
    zip_with: Optional[str] = field(default=None, metadata={"key": "zip"})

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class SweepSpec:
    """A complete, serializable parameter-grid study.

    ``base`` is a full :class:`~repro.api.scenario.Scenario` *except* that
    its ``output`` and ``jobs`` fields must stay at their defaults -- the
    sweep carries its own ``output`` sinks and ``jobs`` count.  The axes
    write into the base's dict form, so anything a scenario file can say,
    an axis can sweep.
    """

    name: str = "sweep"
    description: str = ""
    base: Scenario = field(default_factory=Scenario)
    axes: Tuple[SweepAxis, ...] = ()
    jobs: int = 1
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.jobs < 0:
            raise ScenarioError("jobs", "must be >= 0 (0 = every CPU)")

    # -- serialization -------------------------------------------------------
    @staticmethod
    def _decode(data):
        return untag(data, SWEEP_FORMAT, "sweep")

    @staticmethod
    def _encode(data):
        return {"format": SWEEP_FORMAT, **data}

    def to_dict(self) -> Dict[str, object]:
        """The spec as a JSON-clean mapping (exact round-trip)."""
        return write(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        """Parse a sweep spec, raising :class:`SweepError` naming any bad
        field (``base.``-prefixed inside the base scenario)."""
        try:
            spec = read(cls, data)
        except ScenarioError as exc:
            raise SweepError(exc.field, exc.reason) from None
        spec.check()
        return spec

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    # -- validation ----------------------------------------------------------
    def check(self) -> None:
        """Validate the axes against the base: names unique, values present,
        zip targets known, paths parse and resolve, no two axes writing the
        same (or a nested) field.  Raises :class:`SweepError` naming the
        offending field path."""
        if self.base.output != OutputSpec():
            raise SweepError(
                "base.output",
                "per-point sinks are not written; set the sweep-level "
                "\"output\" block instead",
            )
        if self.base.jobs != 1:
            raise SweepError(
                "base.jobs",
                "per-point worker counts are ignored; set the sweep-level "
                "\"jobs\" field instead",
            )
        base_dict = self.base.to_dict()
        seen_names: Dict[str, int] = {}
        claimed: Dict[str, Tuple[int, str]] = {}
        for index, axis in enumerate(self.axes):
            where = f"axes[{index}]"
            if not axis.name:
                raise SweepError(f"{where}.name", "axis name must be non-empty")
            if axis.name in seen_names:
                raise SweepError(
                    f"{where}.name",
                    f"duplicate axis name {axis.name!r} (also axes"
                    f"[{seen_names[axis.name]}])",
                )
            seen_names[axis.name] = index
            if not axis.values:
                raise SweepError(
                    f"{where}.values", "an axis needs at least one value"
                )
            if axis.zip_with is not None:
                if axis.zip_with not in seen_names or axis.zip_with == axis.name:
                    raise SweepError(
                        f"{where}.zip",
                        f"zip target {axis.zip_with!r} is not an earlier "
                        f"axis; declared so far: "
                        f"{[a.name for a in self.axes[:index]]}",
                    )
            tokens = parse_path(axis.path, f"{where}.path")
            for concrete in _concrete_paths(
                base_dict, tokens, axis.path, f"{where}.path"
            ):
                rendered = _render_tokens(concrete)
                for other_rendered, (other_index, other_name) in claimed.items():
                    if rendered == other_rendered or rendered.startswith(
                        other_rendered + "."
                    ) or rendered.startswith(
                        other_rendered + "["
                    ) or other_rendered.startswith(
                        rendered + "."
                    ) or other_rendered.startswith(rendered + "["):
                        raise SweepError(
                            f"{where}.path",
                            f"{rendered} collides with axis "
                            f"{other_name!r} (axes[{other_index}]) writing "
                            f"{other_rendered}; two axes may not override "
                            f"the same field",
                        )
                claimed[rendered] = (index, axis.name)
        self.groups()  # validate zipped axis lengths eagerly too

    # -- combination structure ----------------------------------------------
    def groups(self) -> List[List[int]]:
        """Axis indices grouped for expansion: zipped axes share a group
        (advancing in lockstep), groups cross as a cartesian product in
        declaration order (first group varies slowest).  Raises
        :class:`SweepError` on zipped length mismatches."""
        by_name = {axis.name: index for index, axis in enumerate(self.axes)}
        group_of: Dict[int, int] = {}
        groups: List[List[int]] = []
        for index, axis in enumerate(self.axes):
            if axis.zip_with is not None:
                target = group_of[by_name[axis.zip_with]]
                anchor = self.axes[groups[target][0]]
                if len(axis.values) != len(anchor.values):
                    raise SweepError(
                        f"axes[{index}].values",
                        f"axis {axis.name!r} is zipped with "
                        f"{anchor.name!r} but has {len(axis.values)} values "
                        f"where {anchor.name!r} has {len(anchor.values)}",
                    )
                groups[target].append(index)
                group_of[index] = target
            else:
                group_of[index] = len(groups)
                groups.append([index])
        return groups


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: a runnable scenario plus its coordinates."""

    point_id: str
    axis_values: Mapping[str, object]
    scenario: Scenario


def _slug(value: object) -> str:
    """A short filesystem-safe rendering of one axis value."""
    if isinstance(value, float):
        text = f"{value:g}"
    elif isinstance(value, (list, tuple)):
        text = "+".join(_slug(entry) for entry in value)
    elif isinstance(value, Mapping):
        text = "+".join(f"{key}-{_slug(val)}" for key, val in value.items())
    else:
        text = str(value)
    return re.sub(r"[^A-Za-z0-9._+-]+", "-", text).strip("-") or "x"


def point_id_for(index: int, axis_values: Mapping[str, object]) -> str:
    """The deterministic id of one point: expansion index + value slug."""
    slug = "-".join(
        f"{_slug(name)}={_slug(value)}" for name, value in axis_values.items()
    )
    if len(slug) > 96:
        slug = slug[:96].rstrip("-")
    return f"{index:03d}-{slug}" if slug else f"{index:03d}"


def expand(spec: SweepSpec) -> List[SweepPoint]:
    """Expand a sweep spec into its explicit grid points.

    Point order is deterministic: the cartesian product of the axis groups
    in declaration order, first group outermost.  Each point's scenario is
    the base's dict form with every axis value applied at its path, re-read
    through :class:`Scenario.from_dict` -- so a value that would be illegal
    in a scenario file is illegal here too, with the same field-path error.
    """
    spec.check()
    groups = spec.groups()
    base_dict = spec.base.to_dict()
    tokens_per_axis = [
        parse_path(axis.path, f"axes[{index}].path")
        for index, axis in enumerate(spec.axes)
    ]
    concrete_per_axis = [
        _concrete_paths(base_dict, tokens, spec.axes[index].path,
                        f"axes[{index}].path")
        for index, tokens in enumerate(tokens_per_axis)
    ]
    lengths = [len(spec.axes[group[0]].values) for group in groups]
    points: List[SweepPoint] = []
    for index, selection in enumerate(
        itertools.product(*(range(length) for length in lengths))
    ):
        axis_values: Dict[str, object] = {}
        point_dict = copy.deepcopy(base_dict)
        for group, position in zip(groups, selection):
            for axis_index in group:
                axis = spec.axes[axis_index]
                value = axis.values[position]
                axis_values[axis.name] = value
                for concrete in concrete_per_axis[axis_index]:
                    _apply_value(
                        point_dict, concrete, value, axis.path,
                        f"axes[{axis_index}].path",
                    )
        # Declaration order, not application order, for stable columns.
        axis_values = {
            axis.name: axis_values[axis.name] for axis in spec.axes
        }
        point_id = point_id_for(index, axis_values)
        try:
            scenario = Scenario.from_dict(point_dict)
        except ScenarioError as exc:
            raise SweepError(
                exc.field, f"(expanding point {point_id}) {exc.reason}"
            ) from None
        points.append(
            SweepPoint(
                point_id=point_id, axis_values=axis_values, scenario=scenario
            )
        )
    return points


def load_sweep(path: Union[str, Path]) -> SweepSpec:
    """Read a sweep spec JSON file, raising :class:`SweepError` on bad JSON
    or a bad field."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SweepError(str(path), f"cannot read sweep file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SweepError(str(path), f"not valid JSON: {exc}") from None
    return SweepSpec.from_dict(data)
