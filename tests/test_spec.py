"""Tests for the typed spec reader and writer (`repro.spec`): the int rule,
full field paths on every node (the ``system.overrides`` included), the
writer's exact bytes, and a hypothesis fuzz of scenario and sweep JSON."""

from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import re
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    ScaleSpec,
    Scenario,
    ScenarioError,
    SystemSpec,
    WorkloadSpec,
    build_matrix,
    set_field,
)
from repro.cli import main
from repro.coherence.engine import CoherenceConfig
from repro.coherence.sharing import SharingProfile
from repro.core.config import CORONA_DEFAULT, CoronaConfig
from repro.core.system import SystemSimulator
from repro.faults import FaultSpec
from repro.obs.spec import ObservabilitySpec
from repro.spec import read
from repro.sweeps import (
    SweepAxis,
    SweepSpec,
    coherence_sweep_spec,
    latency_throughput_sweep_spec,
    sensitivity_sweep_spec,
)
from repro.trace.arrival import ArrivalSpec
from tests.test_api_scenario import _rich_scenario

SPEC_MODULE = Path(__file__).resolve().parent.parent / "src" / "repro" / "spec.py"


class TestReaderModule:
    def test_imports_nothing_from_repro(self):
        tree = ast.parse(SPEC_MODULE.read_text(encoding="utf-8"))
        imported = [
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert not [name for name in imported if name and name.startswith("repro")]

    def test_names_no_spec_class(self):
        source = SPEC_MODULE.read_text(encoding="utf-8")
        for cls in (
            Scenario, SystemSpec, WorkloadSpec, ScaleSpec, CoherenceConfig,
            SharingProfile, FaultSpec, ObservabilitySpec, ArrivalSpec,
            SweepSpec, SweepAxis, CoronaConfig,
        ):
            assert not re.search(rf"\b{cls.__name__}\b", source), cls.__name__


class TestIntRule:
    @pytest.mark.parametrize(
        "path, read_back",
        [
            ("jobs", lambda s: s.jobs),
            ("scale.seed", lambda s: s.scale.seed),
            ("faults.seed", lambda s: s.faults.seed),
            ("observability.timeline_limit", lambda s: s.observability.timeline_limit),
            ("system.overrides.num_clusters", lambda s: s.system.corona_config().num_clusters),
        ],
    )
    def test_whole_float_reads_as_int(self, path, read_back):
        data = Scenario().to_dict()
        set_field(data, path, 2.0)
        value = read_back(Scenario.from_dict(data))
        assert value == 2 and type(value) is int

    @pytest.mark.parametrize(
        "path",
        [
            "jobs",
            "scale.seed",
            "faults.seed",
            "observability.timeline_limit",
            "coherence.broadcast_threshold",
            "workloads[0].num_requests",
            "workloads[0].sharing.num_lines",
            "workloads[0].arrival.seed",
            "system.overrides.num_clusters",
            "system.overrides.cluster.l2_mshrs",
            "system.overrides.core.threads",
        ],
    )
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_bools_and_fractions_rejected(self, path, value):
        data = Scenario(workloads=(WorkloadSpec(name="Uniform"),)).to_dict()
        set_field(data, path, value)
        with pytest.raises(ScenarioError) as excinfo:
            Scenario.from_dict(data)
        assert excinfo.value.field == path

    def test_float_fields_keep_ints(self):
        data = Scenario(workloads=(WorkloadSpec(name="Uniform"),)).to_dict()
        set_field(data, "workloads[0].sharing.fraction", 0)
        scenario = Scenario.from_dict(data)
        assert type(scenario.workloads[0].sharing.fraction) is int
        written = scenario.to_dict()["workloads"][0]["sharing"]["fraction"]
        assert type(written) is int


class TestFieldPaths:
    @pytest.mark.parametrize(
        "path, value",
        [
            ("system.overrides.cluster.l2_mshrs", 2.5),
            ("system.overrides.num_clusters", 2.5),
            ("system.overrides.cluster", 3),
            ("system.overrides.memory_latency_s", "fast"),
            ("workloads[0].sharing.num_lines", 2.5),
            ("workloads[0].sharing.fraction", "high"),
            ("coherence.broadcast_threshold", 2.5),
            ("coherence.broadcast_threshold", "many"),
            ("system.overrides.crossbar_waveguides_per_channel", 0),
            ("system.overrides.core.frequency_hz", 0),
            ("workloads[0].arrival.process", "uniform"),
            ("modules[0]", 3),
            ("modules[0]", ""),
        ],
    )
    def test_bad_value_names_its_full_path(self, path, value):
        data = Scenario(
            workloads=(WorkloadSpec(name="Uniform"),), modules=("m",)
        ).to_dict()
        set_field(data, path, value)
        with pytest.raises(ScenarioError) as excinfo:
            Scenario.from_dict(data)
        assert excinfo.value.field == path
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_unknown_nested_override_is_named(self):
        with pytest.raises(ScenarioError, match="unknown field") as excinfo:
            Scenario.from_dict({"system": {"overrides": {"core": {"smt": 2}}}})
        assert excinfo.value.field == "system.overrides.core.smt"

    def test_sweep_base_override_keeps_the_base_prefix(self):
        data = SweepSpec().to_dict()
        set_field(data, "base.system.overrides.cluster.l2_mshrs", 2.5)
        with pytest.raises(ScenarioError) as excinfo:
            SweepSpec.from_dict(data)
        assert excinfo.value.field == "base.system.overrides.cluster.l2_mshrs"

    def test_overrides_apply_onto_the_base_config(self):
        config = CORONA_DEFAULT.with_overrides({"cluster": {"cores": 2}})
        assert config.cluster.cores == 2
        assert config.cluster.l2_mshrs == CORONA_DEFAULT.cluster.l2_mshrs
        assert CORONA_DEFAULT.with_overrides({}) is CORONA_DEFAULT

    def test_direct_construction_is_checked_too(self):
        with pytest.raises(ScenarioError) as excinfo:
            CoherenceConfig(broadcast_threshold="many")
        assert excinfo.value.field == "broadcast_threshold"
        with pytest.raises(ScenarioError) as excinfo:
            Scenario(workloads=("Uniform",))
        assert excinfo.value.field == "workloads[0]"

    def test_required_field_is_named(self):
        with pytest.raises(ScenarioError, match="required") as excinfo:
            read(SweepAxis, {"name": "a"}, "axes[0]")
        assert excinfo.value.field == "axes[0].path"


#: sha256 of ``to_json()`` as the hand-written per-node writers wrote it:
#: key order, lists and int-vs-float are part of the file format.
WRITER_PINS = {
    "default": "e93a806da0a1bb7536cd01999f6c66a1e6a3c5bfde5e83c8ccd6f636507a2841",
    "rich": "123a26e7bfaa15673b9598c27faa06a85dc0599df1591c7f6f436c3589beef2b",
    "init": "5c568e6ba9a0220073ac0d6d7a36b115a77acc729f8a2d129902a87cd53f0634",
    "coherence": "6f199fc7ba1d0ace736cf5d813f7df78e7b52355e1dcdfbc6a31c35eb9184a63",
    "sensitivity": "01038e72f7cd80a22d8d6eebcc54d3c80d8baf8efccc75468823ab79bd27b64e",
    "latency": "9795692364888ee74654eeb12a1af1df0537dadb0d53151c266e793a4afd59da",
}


class TestWriterBytes:
    @pytest.mark.parametrize(
        "name, spec",
        [
            ("default", Scenario),
            ("rich", _rich_scenario),
            ("coherence", coherence_sweep_spec),
            ("sensitivity", sensitivity_sweep_spec),
            ("latency", lambda: latency_throughput_sweep_spec(scale="quick")),
        ],
    )
    def test_to_json_bytes_are_pinned(self, name, spec):
        text = spec().to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == WRITER_PINS[name]

    def test_init_template_bytes_are_pinned(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        assert main(["scenario", "init", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == WRITER_PINS["init"]


# ---------------------------------------------------------------------------
# Fuzz: one JSON value written at one field path of a valid spec
# ---------------------------------------------------------------------------

def _field_paths(cls, prefix: str):
    """Every field path of node ``cls`` and of the nodes under it, by
    on-disk key (list fields are entered at their first element)."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        path = f"{prefix}{f.metadata.get('key', f.name)}"
        yield path
        annotation = hints[f.name]
        if typing.get_origin(annotation) is tuple:
            path, annotation = f"{path}[0]", typing.get_args(annotation)[0]
            yield path
        nodes = [
            arg for arg in (typing.get_args(annotation) or (annotation,))
            if dataclasses.is_dataclass(arg)
        ]
        for node in nodes:
            yield from _field_paths(node, f"{path}.")
        if f.name == "overrides":
            yield from _field_paths(CoronaConfig, f"{path}.")


#: A valid scenario carrying every node, one workload, one configuration.
FUZZ_SCENARIO = Scenario(
    system=SystemSpec(configurations=("XBar/OCM",)),
    workloads=(
        WorkloadSpec(
            name="Uniform",
            params={"mean_gap_cycles": 20.0},
            sharing=SharingProfile(fraction=0.2),
            arrival=ArrivalSpec(),
            num_requests=64,
        ),
    ),
    coherence=CoherenceConfig(),
    faults=FaultSpec(),
    observability=ObservabilitySpec(),
    modules=("repro.sweeps",),
).to_dict()
SCENARIO_PATHS = sorted(set(_field_paths(Scenario, "")))

#: A valid one-axis sweep over that scenario.
FUZZ_SWEEP = SweepSpec(
    base=Scenario.from_dict(FUZZ_SCENARIO),
    axes=(SweepAxis(name="gap", path="workloads[0].params.mean_gap_cycles",
                    values=(10.0, 20.0)),),
).to_dict()
SWEEP_PATHS = sorted(set(_field_paths(SweepSpec, "")))

#: JSON values.  Magnitudes stay small so an accepted configuration builds
#: in bounded memory (cores, threads and clusters multiply).
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=70),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.text(max_size=6),
)
JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=6), _SCALARS, max_size=3),
)


def _related(field: str, path: str) -> bool:
    """Whether an error on ``field`` answers a write at ``path``: it names
    the written field, a node above it, a field inside the written value,
    or (a cross-field check) a sibling in the same node."""
    def within(inner: str, outer: str) -> bool:
        return inner == outer or inner.startswith((outer + ".", outer + "["))

    parent = field.rsplit(".", 1)[0] if "." in field else ""
    return within(path, field) or within(field, path) or within(path, parent)


class TestSpecFuzz:
    def test_every_node_is_fuzzed(self):
        for path in (
            "system.overrides.num_clusters",
            "system.overrides.cluster.l2_mshrs",
            "system.overrides.core.threads",
            "workloads[0].sharing.num_lines",
            "workloads[0].arrival.rate_rps",
            "coherence.broadcast_threshold",
            "faults.seed",
            "observability.timeline_limit",
            "scale.seed",
            "output.report",
        ):
            assert path in SCENARIO_PATHS
        assert "axes[0].zip" in SWEEP_PATHS
        assert "base.system.overrides.core.frequency_hz" in SWEEP_PATHS

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(path=st.sampled_from(SCENARIO_PATHS), value=JSON_VALUES)
    def test_scenario_json_fails_cleanly_or_builds(self, path, value):
        data = copy.deepcopy(FUZZ_SCENARIO)
        set_field(data, path, value)
        try:
            scenario = Scenario.from_dict(data)
        except ScenarioError as exc:
            assert _related(exc.field, path), (exc.field, path)
            return
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        try:
            matrix = build_matrix(scenario)
        except ScenarioError:
            return  # a registry name or factory param the registries refuse
        workload = matrix.workloads()[0]
        SystemSimulator(
            configuration=matrix.configurations()[0],
            corona_config=matrix.corona_config or CORONA_DEFAULT,
            window_depth=workload.window,
            coherence=scenario.coherence,
            faults=scenario.faults,
            observability=scenario.observability,
        )
        trace = workload.generate_packed(seed=matrix.scale.seed, num_requests=64)
        assert len(trace) == 64

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(path=st.sampled_from(SWEEP_PATHS), value=JSON_VALUES)
    def test_sweep_json_fails_cleanly_or_parses(self, path, value):
        data = copy.deepcopy(FUZZ_SWEEP)
        set_field(data, path, value)
        try:
            spec = SweepSpec.from_dict(data)
        except ScenarioError as exc:
            # An axis whose path no longer resolves in a rewritten base is
            # named by that axis.
            rewrote_base = path == "base" or path.startswith("base.")
            assert _related(exc.field, path) or (
                rewrote_base and exc.field.startswith("axes[")
            ), (exc.field, path)
            return
        assert SweepSpec.from_dict(spec.to_dict()) == spec
