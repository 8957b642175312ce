"""Tests for the observability subsystem (`repro.obs`): spec validation
and Scenario wiring, the off-by-default bit-identity guarantee, timeline
trace_event validity (spans nest, fault events present), the metrics
sampler's resource series, harness phase/worker timings (serial and
``--jobs 2``), the progress heartbeat, the sweep timing surfaces, and the
address-workload registry entries."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.api import (
    WORKLOADS,
    ScaleSpec,
    Scenario,
    ScenarioError,
    SystemSpec,
    WorkloadSpec,
    build_configuration,
    build_workload,
    run,
)
from repro.core.config import CORONA_DEFAULT
from repro.core.system import SystemSimulator
from repro.faults import FaultSpec
from repro.obs import (
    ObservabilitySpec,
    ProgressReporter,
)
from repro.obs.artifacts import pair_path, resolve_pair_spec
from repro.sweeps import SweepAxis, SweepSpec, run_sweep, sweep_status


def _scenario(
    configurations=("XBar/OCM",),
    observability=None,
    faults=None,
    num_requests: int = 400,
    jobs: int = 1,
) -> Scenario:
    return Scenario(
        name="observed",
        system=SystemSpec(configurations=tuple(configurations)),
        workloads=(WorkloadSpec(name="Uniform", num_requests=num_requests),),
        scale=ScaleSpec(seed=5),
        observability=observability,
        faults=faults,
        jobs=jobs,
    )


class TestObservabilitySpec:
    def test_default_spec_is_inactive(self):
        spec = ObservabilitySpec()
        assert not spec.any_active
        assert not spec.simulation_active

    def test_paths_and_progress_activate(self):
        assert ObservabilitySpec(metrics_path="m.csv").metrics_enabled
        assert ObservabilitySpec(timeline_path="t.json").timeline_enabled
        assert ObservabilitySpec(progress=True).any_active
        assert not ObservabilitySpec(progress=True).simulation_active

    def test_dict_round_trip_is_exact(self):
        spec = ObservabilitySpec(
            metrics_interval_ns=250.0,
            metrics_path="m.csv",
            timeline_path="t.json",
            timeline_limit=17,
            progress=True,
            progress_interval_s=0.5,
        )
        assert ObservabilitySpec.from_dict(spec.to_dict()) == spec

    def test_validation_names_the_field(self):
        with pytest.raises(ScenarioError) as err:
            ObservabilitySpec(metrics_interval_ns=0)
        assert err.value.field == "metrics_interval_ns"
        with pytest.raises(ScenarioError):
            ObservabilitySpec(timeline_limit=-1)
        with pytest.raises(ScenarioError):
            ObservabilitySpec(progress="yes")
        with pytest.raises(ScenarioError):
            ObservabilitySpec(progress_interval_s=0.0)

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ScenarioError) as err:
            ObservabilitySpec.from_dict({"flame_graph": True})
        assert err.value.field == "flame_graph"

    def test_scenario_round_trip_and_field_paths(self):
        scenario = _scenario(
            observability=ObservabilitySpec(metrics_path="m.csv")
        )
        again = Scenario.from_dict(scenario.to_dict())
        assert again == scenario
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict(
                {"observability": {"metrics_interval_ns": -4.0}}
            )
        assert "observability.metrics_interval_ns" in str(err.value)

    def test_scenario_null_observability_round_trips(self):
        scenario = _scenario()
        assert scenario.to_dict()["observability"] is None
        assert Scenario.from_dict(scenario.to_dict()).observability is None


class TestPairArtifactPaths:
    def test_single_pair_keeps_path(self, tmp_path):
        spec = ObservabilitySpec(metrics_path=str(tmp_path / "m.csv"))
        resolved = resolve_pair_spec(spec, "XBar/OCM", "Uniform", multi=False)
        assert resolved.metrics_path == str(tmp_path / "m.csv")

    def test_multi_pair_inserts_slug(self, tmp_path):
        spec = ObservabilitySpec(metrics_path=str(tmp_path / "m.csv"))
        resolved = resolve_pair_spec(spec, "XBar/OCM", "Uniform", multi=True)
        assert resolved.metrics_path.endswith("m-XBar-OCM-Uniform.csv")

    def test_placeholder_substitution(self):
        assert pair_path("out/{pair}.csv", "slug", multi=False) == (
            "out/slug.csv"
        )

    def test_inactive_spec_resolves_to_none(self):
        assert resolve_pair_spec(None, "c", "w", multi=False) is None
        assert (
            resolve_pair_spec(
                ObservabilitySpec(progress=True), "c", "w", multi=False
            )
            is None
        )

    @pytest.mark.parametrize(
        "configurations, expected",
        [
            (("XBar/OCM",), ["m.csv"]),
            (
                ("XBar/OCM", "LMesh/ECM"),
                ["m-LMesh-ECM-Uniform.csv", "m-XBar-OCM-Uniform.csv"],
            ),
        ],
    )
    def test_run_writes_each_pair_to_its_own_path(
        self, tmp_path, configurations, expected
    ):
        """A one-pair run keeps the path as given; a multi-pair run slugs
        every pair's file."""
        spec = ObservabilitySpec(metrics_path=str(tmp_path / "m.csv"))
        run(
            _scenario(
                configurations=configurations,
                observability=spec,
                num_requests=300,
            )
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == expected

    def test_sweep_prefixes_each_pair_path_with_its_point_id(self, tmp_path):
        spec = SweepSpec(
            name="paths",
            base=_scenario(
                observability=ObservabilitySpec(
                    metrics_path=str(tmp_path / "m.csv")
                ),
                num_requests=300,
            ),
            axes=(SweepAxis(name="seed", path="scale.seed", values=(1, 2)),),
        )
        run_sweep(spec, jobs=1)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "m-000-seed-1-XBar-OCM-Uniform.csv",
            "m-001-seed-2-XBar-OCM-Uniform.csv",
        ]


class TestBitIdentity:
    def test_disabled_observability_is_bit_identical(self):
        baseline = run(_scenario()).results[0]
        observed = run(
            _scenario(observability=ObservabilitySpec(progress=False))
        ).results[0]
        assert observed.to_dict() == baseline.to_dict()

    def test_enabled_sampler_and_timeline_do_not_change_results(
        self, tmp_path
    ):
        baseline = run(_scenario()).results[0]
        spec = ObservabilitySpec(
            metrics_path=str(tmp_path / "m.csv"),
            timeline_path=str(tmp_path / "t.json"),
        )
        observed = run(_scenario(observability=spec)).results[0]
        assert observed.to_dict() == baseline.to_dict()

    def test_sampler_on_overflowing_queue_does_not_change_results(
        self, tmp_path
    ):
        """Hot Spot on LMesh/ECM books hundreds of departures at one
        controller against 64 slots; sampling its depth expires none."""

        def hotspot(observability=None) -> Scenario:
            return Scenario(
                system=SystemSpec(configurations=("LMesh/ECM",)),
                workloads=(WorkloadSpec(name="Hot Spot", num_requests=800),),
                scale=ScaleSpec(seed=1),
                observability=observability,
            )

        baseline = run(hotspot()).results[0]
        spec = ObservabilitySpec(
            metrics_path=str(tmp_path / "m.csv"), metrics_interval_ns=100.0
        )
        observed = run(hotspot(spec)).results[0]
        assert observed.to_dict() == baseline.to_dict()
        with (tmp_path / "m.csv").open() as handle:
            depths = [
                float(row["value"])
                for row in csv.DictReader(handle)
                if (row["resource"], row["metric"]) == ("dram", "queue_depth")
            ]
        assert len(depths) > 10 and max(depths) > 64

    def test_mesh_link_series_track_link_busy_time(self, tmp_path):
        """A mesh replay's sampler emits the link series, and its final
        ``busy_s_total`` is the links' summed busy time."""
        simulator = SystemSimulator(
            build_configuration("LMesh/ECM"),
            observability=ObservabilitySpec(metrics_path=str(tmp_path / "m.csv")),
        )
        workload = build_workload("Uniform")
        simulator.run(workload.generate_packed(seed=1, num_requests=400))
        busy = [
            value
            for _, resource, metric, value in simulator._obs_metrics.rows
            if (resource, metric) == ("mesh_links", "busy_s_total")
        ]
        assert len(busy) >= 2
        assert busy[-1] > 0.0
        assert busy[-1] == sum(
            link.busy_time for link in simulator.network.links.values()
        )


    def test_active_wavelengths_count_the_channel_width(self, tmp_path):
        """``wavelengths``/``active`` counts each channel that moved bytes at
        the system's channel width: two waveguides per channel at twice the
        rate replay the same channel bandwidth and light half the
        wavelengths."""
        active = {}
        for waveguides, rate in ((4, 10e9), (2, 20e9)):
            config = CORONA_DEFAULT.with_overrides(
                {"crossbar_waveguides_per_channel": waveguides, "signalling_rate_bps": rate}
            )
            simulator = SystemSimulator(
                build_configuration("XBar/OCM"),
                config,
                observability=ObservabilitySpec(
                    metrics_path=str(tmp_path / "m.csv"), metrics_interval_ns=20.0
                ),
            )
            workload = build_workload("Uniform")
            simulator.run(workload.generate_packed(seed=1, num_requests=400))
            active[waveguides] = [
                value
                for _, resource, metric, value in simulator._obs_metrics.rows
                if (resource, metric) == ("wavelengths", "active")
            ]
        assert max(active[4]) > 0
        assert active[2] == [value // 2 for value in active[4]]


class TestTelemetryGoldens:
    """The metrics CSV, timeline JSON and samples JSON of one faulted,
    telemetry-enabled pair, pinned byte for byte."""

    @pytest.mark.parametrize("configuration", ["XBar/OCM", "LMesh/ECM"])
    def test_artifacts_match_golden(self, tmp_path, configuration):
        from tests.golden import TELEMETRY, file_digests, telemetry_scenario

        run(telemetry_scenario(configuration, tmp_path))
        assert file_digests(tmp_path) == TELEMETRY[configuration]


class TestTimeline:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("obs")
        spec = ObservabilitySpec(
            metrics_path=str(tmp_path / "m.csv"),
            timeline_path=str(tmp_path / "t.json"),
        )
        result = run(
            _scenario(
                observability=spec,
                faults=FaultSpec(token_loss_rate=0.05, seed=7),
            )
        )
        return tmp_path, result

    def test_timeline_is_valid_trace_event_json(self, artifacts):
        tmp_path, _ = artifacts
        events = json.loads((tmp_path / "t.json").read_text())
        assert isinstance(events, list) and events
        for event in events:
            assert "ph" in event and "pid" in event

    def test_spans_nest_inside_their_transaction(self, artifacts):
        tmp_path, _ = artifacts
        events = json.loads((tmp_path / "t.json").read_text())
        parents = {}
        for event in events:
            if event.get("ph") == "X" and event.get("cat") == "transaction":
                key = (event["pid"], event["tid"])
                parents.setdefault(key, []).append(
                    (event["ts"], event["ts"] + event["dur"])
                )
        stages = [
            e for e in events
            if e.get("ph") == "X" and e.get("cat") == "stage"
        ]
        assert stages, "expected per-stage spans"
        eps = 1e-6
        for event in stages:
            key = (event["pid"], event["tid"])
            start, stop = event["ts"], event["ts"] + event["dur"]
            assert any(
                ps - eps <= start and stop <= pe + eps
                for ps, pe in parents.get(key, [])
            ), f"stage span at {start} not nested in any transaction"

    def test_fault_events_present(self, artifacts):
        tmp_path, _ = artifacts
        events = json.loads((tmp_path / "t.json").read_text())
        instants = [e for e in events if e.get("ph") == "i"]
        assert instants, "expected fault instant events"
        assert any("token" in e.get("name", "") for e in instants)

    def test_metrics_csv_has_resource_series(self, artifacts):
        tmp_path, _ = artifacts
        with (tmp_path / "m.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        resources = {row["resource"] for row in rows}
        assert len(resources) >= 4
        times = sorted({float(row["time_ns"]) for row in rows})
        assert len(times) >= 2, "expected samples on simulated time"

    def test_timeline_limit_truncates_with_note(self, tmp_path):
        spec = ObservabilitySpec(
            timeline_path=str(tmp_path / "t.json"), timeline_limit=5
        )
        run(_scenario(observability=spec))
        events = json.loads((tmp_path / "t.json").read_text())
        assert any(
            e.get("ph") == "M" and "truncated" in json.dumps(e)
            for e in events
        )


class TestHarnessTimings:
    def test_serial_run_records_phase_and_worker_timings(self, tmp_path):
        scenario = _scenario()
        result = run(scenario)
        phases = result.timings["phases"]
        assert phases["trace_generation"] >= 0
        assert phases["replay"] > 0
        assert result.timings["workers"] == {
            "in-process": pytest.approx(phases["replay"])
        }
        assert result.timings["pairs"][0]["configuration"] == "XBar/OCM"

    def test_parallel_run_records_per_worker_timings(self):
        result = run(
            _scenario(
                configurations=("XBar/OCM", "HMesh/ECM"),
                jobs=2,
                num_requests=300,
            )
        )
        workers = result.timings["workers"]
        assert workers and all(v > 0 for v in workers.values())
        assert "in-process" not in workers
        phases = result.timings["phases"]
        assert "dispatch" in phases and "replay" in phases

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_telemetry_writes_are_charged_to_sink_write(self, tmp_path, jobs):
        """Per-pair artifact writes land in sink_write wherever the pair
        replayed (no report/CSV sink here, so nothing else can)."""
        result = run(
            _scenario(
                configurations=("XBar/OCM", "HMesh/ECM"),
                observability=ObservabilitySpec(
                    samples_path=str(tmp_path / "samples.json")
                ),
                num_requests=300,
                jobs=jobs,
            )
        )
        assert result.timings["phases"]["sink_write"] > 0

    def test_timings_survive_the_json_sink(self, tmp_path):
        from repro.api import OutputSpec

        scenario = _scenario()
        scenario = Scenario.from_dict(
            {
                **scenario.to_dict(),
                "output": OutputSpec(
                    json=str(tmp_path / "results.json")
                ).to_dict(),
            }
        )
        run(scenario)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert "phases" in payload["timings"]


class TestProgressReporter:
    def test_heartbeat_lines_and_counts(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            4, interval_s=0.0, stream=stream, label="run"
        )
        reporter.pair_done()
        reporter.pair_done(failed=True, retries=2)
        reporter.finish()
        output = stream.getvalue()
        assert "[run]" in output
        assert "2/4 pairs" in output
        assert "retried 2" in output
        assert "failed 1" in output

    def test_progress_spec_drives_stderr_heartbeat(self, capsys):
        spec = ObservabilitySpec(progress=True, progress_interval_s=0.001)
        run(_scenario(observability=spec, num_requests=200))
        err = capsys.readouterr().err
        assert "[run]" in err and "pairs" in err


class TestSweepTimings:
    def test_sweep_checkpoints_and_status_carry_seconds(self, tmp_path):
        spec = SweepSpec(
            name="obs-sweep",
            base=_scenario(num_requests=200),
            axes=(SweepAxis(name="seed", path="scale.seed", values=(1, 2)),),
        )
        run_sweep(spec, directory=tmp_path, jobs=1)
        status = sweep_status(tmp_path)
        assert set(status.point_seconds) == set(status.completed_ids)
        assert all(v > 0 for v in status.point_seconds.values())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["timings"]["points"]) == set(status.completed_ids)
        assert manifest["timings"]["wall_clock_seconds"] > 0

    def test_resume_preserves_point_seconds(self, tmp_path):
        spec = SweepSpec(
            name="obs-sweep",
            base=_scenario(num_requests=200),
            axes=(SweepAxis(name="seed", path="scale.seed", values=(1, 2)),),
        )
        run_sweep(spec, directory=tmp_path, jobs=1)
        before = sweep_status(tmp_path).point_seconds
        outcome = run_sweep(spec, directory=tmp_path, jobs=1)
        assert len(outcome.skipped_point_ids) == 2
        assert sweep_status(tmp_path).point_seconds == before


class TestAddressWorkloadRegistry:
    def test_registered_but_explicit_only(self):
        for name in ("addr-streaming", "addr-resident", "addr-random-shared"):
            assert name in WORKLOADS.names()
            assert name not in WORKLOADS.default_names()

    def test_builds_and_generates_bounded_stream(self):
        workload = build_workload("addr-streaming")
        assert workload.is_synthetic
        trace = workload.generate_packed(seed=2, num_requests=300)
        assert 0 < trace.total_requests <= 300

    def test_unknown_kind_rejected(self):
        from repro.trace.address import registered_address_workload

        with pytest.raises(ValueError, match="unknown address workload"):
            registered_address_workload("zigzag")

    def test_runs_through_a_scenario(self):
        scenario = Scenario(
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(
                WorkloadSpec(name="addr-resident", num_requests=300),
            ),
            scale=ScaleSpec(seed=1),
        )
        result = run(scenario).results[0]
        assert result.workload == "AddressResident"
        assert result.num_requests > 0

    def test_streaming_pair_matches_golden(self):
        from repro.analysis.runtime import scenario_digests
        from tests.golden import ADDR_STREAMING, addr_streaming_scenario

        assert scenario_digests(addr_streaming_scenario(), jobs=1) == ADDR_STREAMING
