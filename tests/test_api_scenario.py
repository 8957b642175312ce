"""Tests for the Scenario API: registries, spec round-trips, validation
errors, the run() entry point, and the parallel worker resolution errors."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    CONFIGURATIONS,
    WORKLOADS,
    OutputSpec,
    Registry,
    RegistryCollisionError,
    ScaleSpec,
    Scenario,
    ScenarioError,
    SystemSpec,
    UnknownEntryError,
    WorkloadSpec,
    build_matrix,
    load_scenario,
    run,
)
from repro.coherence.engine import CoherenceConfig
from repro.coherence.sharing import SharingProfile
from repro.core.configs import CONFIGURATION_ORDER, SystemConfiguration
from repro.core.results import RESULT_CSV_COLUMNS, WorkloadResult
from repro.harness.parallel import (
    WorkerSetupError,
    _replay_pair,
    run_pairs,
)
from repro.trace.splash2 import (
    SPLASH2_SHARING_PROFILES,
    splash2_workload,
)
from repro.trace.synthetic import uniform_workload


def _rich_scenario() -> Scenario:
    return Scenario(
        name="rich",
        description="everything the schema can carry",
        system=SystemSpec(
            configurations=("LMesh/ECM", "XBar/OCM"),
            overrides={"num_clusters": 16, "cluster": {"cores": 2}},
        ),
        workloads=(
            WorkloadSpec(
                name="Uniform",
                params={"num_clusters": 16, "mean_gap_cycles": 20.0},
                num_requests=500,
            ),
            WorkloadSpec(
                name="Barnes",
                params={"num_clusters": 16, "label": "Barnes s=0.25"},
                sharing=SharingProfile(fraction=0.25),
            ),
            WorkloadSpec(name="Hot Spot", sharing="default"),
        ),
        scale=ScaleSpec(tier="full", synthetic_requests=1000, seed=7),
        coherence=CoherenceConfig(broadcast_threshold=2),
        jobs=3,
        modules=("some.module",),
        output=OutputSpec(report="r.md", json="r.json", csv="r.csv"),
    )


class TestScenarioRoundTrip:
    def test_dict_round_trip_is_exact(self):
        scenario = _rich_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_default_scenario_round_trips(self):
        scenario = Scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_dict_form_is_json_clean(self):
        scenario = _rich_scenario()
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario

    def test_json_file_round_trip(self, tmp_path):
        scenario = _rich_scenario()
        path = scenario.save(tmp_path / "scenario.json")
        assert load_scenario(path) == scenario

    def test_workload_shorthand_string(self):
        scenario = Scenario.from_dict({"workloads": ["Uniform"]})
        assert scenario.workloads == (WorkloadSpec(name="Uniform"),)

    def test_workload_result_round_trip(self):
        result = run(
            Scenario(
                system=SystemSpec(configurations=("XBar/OCM",)),
                workloads=(WorkloadSpec(name="Uniform", num_requests=400),),
            )
        ).results[0]
        assert WorkloadResult.from_dict(result.to_dict()) == result
        with pytest.raises(ValueError, match="bogus_field"):
            WorkloadResult.from_dict({**result.to_dict(), "bogus_field": 1})


class TestScenarioValidation:
    def test_unknown_top_level_field_is_named(self):
        with pytest.raises(ScenarioError, match="frobnicate"):
            Scenario.from_dict({"frobnicate": 1})
        # Scenario files written before the experiments hook was removed
        # carry "experiments": []; they fail on that field, not elsewhere.
        with pytest.raises(ScenarioError, match="unknown field") as excinfo:
            Scenario.from_dict({"experiments": []})
        assert excinfo.value.field == "experiments"

    def test_bad_sharing_fraction_names_the_path(self):
        with pytest.raises(ScenarioError, match=r"workloads\[0\].sharing"):
            Scenario.from_dict(
                {"workloads": [{"name": "Uniform",
                                "sharing": {"fraction": 2.0}}]}
            )

    def test_wrong_typed_values_still_raise_scenario_errors(self):
        # A wrongly typed value fails its field's type check, with the
        # field path, before any range check compares it.
        with pytest.raises(ScenarioError, match=r"workloads\[0\].sharing"):
            Scenario.from_dict(
                {"workloads": [{"name": "Uniform",
                                "sharing": {"fraction": "high"}}]}
            )
        with pytest.raises(ScenarioError, match="coherence"):
            Scenario.from_dict({"coherence": {"broadcast_threshold": "many"}})

    def test_unknown_sharing_field_is_named(self):
        with pytest.raises(ScenarioError, match=r"workloads\[0\].sharing"):
            Scenario.from_dict(
                {"workloads": [{"name": "Uniform",
                                "sharing": {"fractoin": 0.2}}]}
            )

    def test_bad_scale_tier_names_the_path(self):
        with pytest.raises(ScenarioError, match="scale.tier"):
            Scenario.from_dict({"scale": {"tier": "warp"}})

    def test_bad_override_names_the_path(self):
        with pytest.raises(ScenarioError, match="system.overrides"):
            Scenario.from_dict(
                {"system": {"overrides": {"num_flux_capacitors": 3}}}
            )

    def test_negative_jobs_rejected(self):
        with pytest.raises(ScenarioError, match="jobs"):
            Scenario.from_dict({"jobs": -1})

    def test_workload_name_required(self):
        with pytest.raises(ScenarioError, match=r"workloads\[0\].name"):
            Scenario.from_dict({"workloads": [{"params": {}}]})

    def test_empty_configuration_list_rejected(self):
        with pytest.raises(ScenarioError, match="system.configurations"):
            Scenario.from_dict({"system": {"configurations": []}})

    def test_validate_flags_unknown_names(self):
        with pytest.raises(ScenarioError, match=r"workloads\[0\].name"):
            Scenario(workloads=(WorkloadSpec(name="NotAWorkload"),)).validate()
        with pytest.raises(ScenarioError, match=r"system.configurations\[0\]"):
            Scenario(
                system=SystemSpec(configurations=("NotAConfig",))
            ).validate()

    def test_validate_flags_missing_module(self):
        with pytest.raises(ScenarioError, match=r"modules\[0\]"):
            Scenario(modules=("no_such_module_abc",)).validate()

    def test_bad_json_file_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="broken.json"):
            load_scenario(path)

    def test_duplicate_workload_names_rejected(self):
        scenario = Scenario(
            workloads=(
                WorkloadSpec(name="Uniform"),
                WorkloadSpec(name="Uniform", params={"mean_gap_cycles": 10.0}),
            )
        )
        # The error points at the *duplicate* entry, not the original.
        with pytest.raises(ScenarioError, match=r"workloads\[1\]: duplicate"):
            build_matrix(scenario)
        # validate() is faithful to run(): it builds the matrix too.
        with pytest.raises(ScenarioError, match=r"workloads\[1\]: duplicate"):
            scenario.validate()

    def test_sharing_mapping_in_params_builds(self):
        # "validates implies runs": a sharing dict placed in params resolves
        # to a profile at construction instead of exploding mid-generation.
        scenario = Scenario.from_dict(
            {"workloads": [{"name": "Uniform",
                            "params": {"sharing": {"fraction": 0.3}}}]}
        )
        matrix = build_matrix(scenario)
        assert matrix.workloads()[0].sharing == SharingProfile(fraction=0.3)

    def test_num_requests_in_params_rejected(self):
        scenario = Scenario.from_dict(
            {"workloads": [{"name": "Uniform",
                            "params": {"num_requests": 500}}]}
        )
        with pytest.raises(
            ScenarioError, match=r"workloads\[0\].params.num_requests"
        ):
            scenario.validate()

    def test_cluster_count_mismatch_rejected(self):
        scenario = Scenario(
            system=SystemSpec(
                configurations=("XBar/OCM",), overrides={"num_clusters": 16}
            ),
            workloads=(WorkloadSpec(name="Uniform"),),
        )
        with pytest.raises(ScenarioError, match="num_clusters"):
            build_matrix(scenario)


class TestRegistry:
    def test_collision_raises(self):
        registry = Registry("demo")
        registry.register("x")(lambda: 1)
        with pytest.raises(RegistryCollisionError, match="already registered"):
            registry.register("x")(lambda: 2)
        registry.register("x", replace=True)(lambda: 3)
        assert registry.build("x") == 3

    def test_unknown_entry_lists_known(self):
        registry = Registry("demo")
        registry.register("alpha")(lambda: 1)
        with pytest.raises(UnknownEntryError, match="alpha"):
            registry.get("beta")

    def test_seed_entries_present(self):
        # Prefix comparison: user/test registrations append after the seeds.
        assert CONFIGURATIONS.names()[:5] == CONFIGURATION_ORDER
        assert WORKLOADS.names()[:6] == [
            "Uniform", "Hot Spot", "Tornado", "Transpose",
            "Bit Reversal", "Neighbor",
        ]
        assert "Water-Sp" in WORKLOADS

    def test_custom_registration_runs_end_to_end(self):
        from repro.memory.ecm import ElectricallyConnectedMemory
        from repro.network.crossbar import OpticalCrossbar

        name = "Test/XBarECM"
        if name not in CONFIGURATIONS:
            CONFIGURATIONS.register(name)(
                lambda: SystemConfiguration(
                    name=name,
                    network_factory=OpticalCrossbar,
                    memory_factory=ElectricallyConnectedMemory,
                )
            )
        result = run(
            Scenario(
                system=SystemSpec(configurations=(name,)),
                workloads=(WorkloadSpec(name="Uniform", num_requests=400),),
            )
        )
        assert result.results[0].configuration == name

    def test_factory_name_mismatch_rejected(self):
        name = "Test/Mismatch"
        if name not in CONFIGURATIONS:
            from repro.core.configs import configuration_by_name

            CONFIGURATIONS.register(name)(
                lambda: configuration_by_name("XBar/OCM")
            )
        scenario = Scenario(
            system=SystemSpec(configurations=(name,)),
            workloads=(WorkloadSpec(name="Uniform", num_requests=400),),
        )
        with pytest.raises(ScenarioError, match="names must match"):
            build_matrix(scenario)

    def test_workload_without_generate_packed_rejected(self, monkeypatch):
        class RecordsOnly:
            name = "Test/RecordsOnly"
            window = 4

            def generate(self, seed=1, num_requests=None):
                return []

        # Register into copies of the process-wide tables, which monkeypatch
        # puts back afterwards, so later tests never see this entry.
        monkeypatch.setattr(WORKLOADS, "_entries", dict(WORKLOADS._entries))
        monkeypatch.setattr(
            WORKLOADS, "_explicit_only", set(WORKLOADS._explicit_only)
        )
        WORKLOADS.register(RecordsOnly.name)(RecordsOnly)
        scenario = Scenario(
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(
                WorkloadSpec(name="Uniform", num_requests=400),
                WorkloadSpec(name=RecordsOnly.name, num_requests=400),
            ),
        )
        with pytest.raises(
            ScenarioError, match=r"workloads\[1\].name: .*generate_packed"
        ):
            build_matrix(scenario)


class TestRunEntryPoint:
    def test_parallel_run_matches_serial(self):
        scenario = Scenario(
            system=SystemSpec(configurations=("LMesh/ECM", "XBar/OCM")),
            workloads=(WorkloadSpec(name="Uniform", num_requests=600),),
        )
        assert run(scenario, jobs=2).results == run(scenario).results

    def test_on_result_streams_in_serial_order(self):
        scenario = Scenario(
            system=SystemSpec(configurations=("LMesh/ECM", "XBar/OCM")),
            workloads=(
                WorkloadSpec(name="Uniform", num_requests=500),
                WorkloadSpec(name="Neighbor", num_requests=500),
            ),
            jobs=2,
        )
        streamed = []
        result = run(
            scenario,
            on_result=lambda r: streamed.append((r.workload, r.configuration)),
        )
        assert streamed == [
            (r.workload, r.configuration) for r in result.results
        ]
        assert streamed[0] == ("Uniform", "LMesh/ECM")

    def test_output_sinks_written(self, tmp_path):
        scenario = Scenario(
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(WorkloadSpec(name="Uniform", num_requests=500),),
            output=OutputSpec(
                report=str(tmp_path / "out" / "report.md"),
                json=str(tmp_path / "out" / "results.json"),
                csv=str(tmp_path / "out" / "results.csv"),
            ),
        )
        result = run(scenario)
        # A JSON sink also gets the corona-artifacts/1 manifest next to it.
        assert sorted(result.written) == ["artifacts", "csv", "json", "report"]
        report = result.written["report"].read_text()
        assert report.startswith("# Corona reproduction report")
        payload = json.loads(result.written["json"].read_text())
        assert payload["format"] == "corona-results/1"
        assert Scenario.from_dict(payload["scenario"]) == scenario
        rebuilt = WorkloadResult.from_dict(payload["results"][0])
        assert rebuilt == result.results[0]
        header = result.written["csv"].read_text().splitlines()[0]
        assert header == ",".join(RESULT_CSV_COLUMNS)

    def test_empty_workloads_means_all_registered(self):
        matrix = build_matrix(Scenario())
        # Explicit-only entries (trace-file needs a path) are not part of
        # the "every registered workload" expansion.
        assert matrix.workload_names() == WORKLOADS.default_names()
        assert "trace-file" in WORKLOADS.names()
        assert "trace-file" not in WORKLOADS.default_names()
        assert matrix.run_count() == 5 * 17

    def test_overrides_flow_into_simulators(self):
        scenario = Scenario(
            system=SystemSpec(
                configurations=("XBar/OCM",), overrides={"num_clusters": 16}
            ),
            workloads=(
                WorkloadSpec(
                    name="Uniform",
                    params={"num_clusters": 16},
                    num_requests=400,
                ),
            ),
        )
        serial = run(scenario)
        assert serial.results[0].num_requests == 400
        assert run(scenario, jobs=2).results == serial.results

    @pytest.mark.parametrize(
        "overrides",
        [
            {"memory_latency_s": 80e-9},
            {"cluster": {"l2_mshrs": 1}},
            {"cluster": {"hub_queue_depth": 1}},
        ],
        ids=["memory_latency_s", "l2_mshrs", "hub_queue_depth"],
    )
    def test_replay_overrides_take_effect(self, overrides):
        """Each of these fields sizes a replayed resource (DRAM latency, the
        hubs' MSHRs and injection queues), so a binding value must change
        the result."""

        def replay(system_overrides):
            return run(
                Scenario(
                    system=SystemSpec(
                        configurations=("XBar/OCM",), overrides=system_overrides
                    ),
                    workloads=(WorkloadSpec(name="Uniform", num_requests=600),),
                    scale=ScaleSpec(tier="quick", seed=1),
                )
            ).results[0]

        default, changed = replay({}), replay(overrides)
        assert changed != default
        assert changed.average_latency_s > default.average_latency_s

    def test_coherence_sweep_experiment_honors_overrides(self, tmp_path):
        from repro.sweeps import coherence_sweep_spec, run_sweep

        report = tmp_path / "report.md"
        run_sweep(
            coherence_sweep_spec(
                fractions=(0.3,),
                configurations=("LMesh/ECM", "XBar/OCM"),
                num_requests=400,
                overrides={"num_clusters": 16},
                output=OutputSpec(report=str(report)),
            )
        )
        # The sweep replays at the overridden 16-cluster design (its
        # workload is generated for 16 clusters, or the matrix would refuse
        # it).  Sanity: section present and the sweep ran on both
        # configurations.
        markdown = report.read_text()
        section = markdown[markdown.index("## Coherence cost"):]
        assert "LMesh/ECM" in section and "XBar/OCM" in section


class TestWorkerResolutionErrors:
    def test_unknown_configuration_in_worker_is_actionable(self):
        trace = uniform_workload().generate_packed(seed=1, num_requests=200)
        with pytest.raises(WorkerSetupError, match="could not resolve"):
            _replay_pair("No/Such", trace, 4)
        with pytest.raises(WorkerSetupError, match="scenario"):
            # The hint mentions the scenario 'modules' remediation.
            _replay_pair("No/Such", trace, 4)

    def test_missing_module_in_worker_is_actionable(self):
        trace = uniform_workload().generate_packed(seed=1, num_requests=200)
        with pytest.raises(WorkerSetupError, match="no_such_module_abc"):
            _replay_pair(
                "XBar/OCM", trace, 4, None, None, ("no_such_module_abc",)
            )

    def test_pool_error_is_clean_of_worker_traceback(self):
        trace = uniform_workload().generate_packed(seed=1, num_requests=200)
        pairs = [("No/Such", trace, 4, None), ("No/Such", trace, 4, None)]
        with pytest.raises(WorkerSetupError) as excinfo:
            run_pairs(pairs, jobs=2)
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__


class TestSplash2Sharing:
    def test_sharing_off_by_default(self):
        trace = splash2_workload("Barnes").generate_packed(
            seed=1, num_requests=2000
        )
        assert trace.shared_fraction() == 0.0

    def test_default_profile_tags_shared_lines(self):
        trace = splash2_workload("Barnes", sharing="default").generate_packed(
            seed=1, num_requests=4000
        )
        expected = SPLASH2_SHARING_PROFILES["Barnes"].fraction
        assert abs(trace.shared_fraction() - expected) < 0.05

    def test_every_benchmark_has_a_profile(self):
        from repro.trace.splash2 import SPLASH2_ORDER

        assert sorted(SPLASH2_SHARING_PROFILES) == sorted(SPLASH2_ORDER)

    def test_stream_and_packed_agree_with_sharing(self):
        """The packed generator reproduces the record-object generator's
        trace (meta + addresses + gaps digest, recorded before the packed
        columns became the only representation)."""
        import hashlib

        workload = splash2_workload("LU", sharing="default")
        packed = workload.generate_packed(seed=5, num_requests=2000)
        digest = hashlib.sha256()
        for column in (packed.meta, packed.addresses, packed.gaps):
            digest.update(column.tobytes())
        assert digest.hexdigest() == (
            "92dc61802c521576a86fcfaf0f07b9265cd66317d48a4b8275997c0a2bdb5be8"
        )

    def test_label_renames_the_workload(self):
        workload = splash2_workload("FFT", label="FFT shared")
        assert workload.name == "FFT shared"
        assert workload.generate_packed(seed=1, num_requests=1200).name == (
            "FFT shared"
        )

    def test_bad_sharing_string_rejected(self):
        with pytest.raises(ValueError, match="default"):
            splash2_workload("FFT", sharing="everything")

    def test_coherent_replay_consumes_shared_splash_trace(self):
        scenario = Scenario(
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(
                WorkloadSpec(name="Radiosity", sharing="default",
                             num_requests=1500),
            ),
            coherence=CoherenceConfig(),
        )
        result = run(scenario).results[0]
        assert result.coherence_enabled
        assert result.shared_requests > 0
