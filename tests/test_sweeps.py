"""Tests for the declarative sweep subsystem (`repro.sweeps`): spec
round-trips and validation errors, grid expansion (cartesian and zipped),
deterministic point ids, the execution engine's trace reuse, checkpointed
kill-and-resume, serial/parallel bit-equivalence, the structured result
sinks, the stock studies (coherence cost table included), and the CLI
surface."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest

from repro.api import (
    OutputSpec,
    ScaleSpec,
    Scenario,
    ScenarioError,
    SystemSpec,
    WorkloadSpec,
)
from repro.cli import main
from repro.core.results import (
    RESULT_CSV_COLUMNS,
    long_form_columns,
    long_form_row,
)
from repro.sweeps import (
    SweepAxis,
    SweepError,
    SweepSpec,
    TraceCache,
    coherence_sweep_spec,
    expand,
    latency_throughput_sweep_spec,
    load_sweep,
    run_sweep,
    sensitivity_sweep_spec,
    spec_digest,
    sweep_status,
)
from repro.sweeps.engine import MANIFEST_NAME, POINTS_NAME
from tests.golden import SWEEP_1000, digests


def _base(num_requests: int = 500) -> Scenario:
    return Scenario(
        name="base",
        system=SystemSpec(configurations=("LMesh/ECM",)),
        workloads=(WorkloadSpec(name="Uniform", num_requests=num_requests),),
        scale=ScaleSpec(tier="quick", seed=1),
    )


def _grid(num_requests: int = 500, gaps=(20.0, 40.0)) -> SweepSpec:
    """A small (gaps x 2 configurations) grid, one pair per point."""
    return SweepSpec(
        name="grid",
        base=_base(num_requests),
        axes=(
            SweepAxis(
                name="gap",
                path="workloads[0].params.mean_gap_cycles",
                values=tuple(gaps),
            ),
            SweepAxis(
                name="configuration",
                path="system.configurations",
                values=(["LMesh/ECM"], ["XBar/OCM"]),
            ),
        ),
    )


class TestSweepSpec:
    def test_dict_round_trip_is_exact(self):
        spec = _grid()
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_json_clean_and_file_round_trip(self, tmp_path):
        spec = _grid()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert SweepSpec.from_dict(payload) == spec
        path = spec.save(tmp_path / "spec.json")
        assert load_sweep(path) == spec

    def test_unknown_top_level_field_is_named(self):
        # Structural helpers are shared with the scenario parser, so the
        # error is a ScenarioError naming the field (SweepError subclasses
        # it, callers catch both uniformly).
        with pytest.raises(ScenarioError, match="axez"):
            SweepSpec.from_dict({"axez": []})

    def test_axis_requires_name_path_values(self):
        with pytest.raises(SweepError, match=r"axes\[0\].name"):
            SweepSpec.from_dict({"axes": [{"path": "scale.seed"}]})
        with pytest.raises(SweepError, match=r"axes\[0\].path"):
            SweepSpec.from_dict({"axes": [{"name": "seed"}]})
        with pytest.raises(SweepError, match=r"axes\[0\].values"):
            SweepSpec.from_dict(
                {"axes": [{"name": "seed", "path": "scale.seed", "values": []}]}
            )

    def test_duplicate_axis_name_rejected(self):
        spec = _grid()
        bad = replace(
            spec,
            axes=(spec.axes[0], replace(spec.axes[1], name="gap")),
        )
        with pytest.raises(SweepError, match=r"axes\[1\].name"):
            bad.check()

    def test_zip_target_must_be_an_earlier_axis(self):
        with pytest.raises(SweepError, match=r"axes\[0\].zip"):
            SweepSpec.from_dict(
                {
                    "axes": [
                        {
                            "name": "a",
                            "path": "scale.seed",
                            "values": [1],
                            "zip": "missing",
                        }
                    ]
                }
            )

    def test_zipped_length_mismatch_names_the_axis(self):
        spec = _grid()
        bad = replace(
            spec,
            axes=(
                spec.axes[0],
                SweepAxis(
                    name="label",
                    path="workloads[0].params.name",
                    values=("only-one",),
                    zip_with="gap",
                ),
            ),
        )
        with pytest.raises(
            SweepError, match=r"axes\[1\].values.*zipped with 'gap'"
        ):
            expand(bad)

    def test_override_collision_names_the_field_path(self):
        spec = _grid()
        bad = replace(
            spec,
            axes=(
                spec.axes[0],
                SweepAxis(
                    name="gap2",
                    path="workloads[0].params.mean_gap_cycles",
                    values=(1.0,),
                ),
            ),
        )
        with pytest.raises(
            SweepError,
            match=r"axes\[1\].path.*workloads\[0\].params.mean_gap_cycles",
        ):
            bad.check()

    def test_nested_collision_detected(self):
        # One axis writing a whole object, another a field inside it.
        spec = SweepSpec(
            base=_base(),
            axes=(
                SweepAxis(
                    name="whole",
                    path="workloads[0].sharing",
                    values=({"fraction": 0.1},),
                ),
                SweepAxis(
                    name="part",
                    path="workloads[0].sharing.fraction",
                    values=(0.2,),
                ),
            ),
        )
        with pytest.raises(SweepError, match=r"axes\[1\].path.*collides"):
            spec.check()

    def test_bad_path_segment_named(self):
        spec = replace(
            _grid(),
            axes=(SweepAxis(name="bad", path="scale..seed", values=(1,)),),
        )
        with pytest.raises(SweepError, match=r"axes\[0\].path"):
            spec.check()

    def test_out_of_range_index_named(self):
        spec = replace(
            _grid(),
            axes=(
                SweepAxis(
                    name="bad",
                    path="workloads[5].params.window",
                    values=(1,),
                ),
            ),
        )
        with pytest.raises(SweepError, match=r"axes\[0\].path.*out of range"):
            spec.check()

    def test_base_experiments_output_jobs_rejected(self):
        with_output = replace(
            _grid(), base=replace(_base(), output=OutputSpec(report="r.md"))
        )
        with pytest.raises(SweepError, match="base.output"):
            with_output.check()
        with_jobs = replace(_grid(), base=replace(_base(), jobs=4))
        with pytest.raises(SweepError, match="base.jobs"):
            with_jobs.check()

    @pytest.mark.parametrize(
        "base_fields, path",
        [
            ({"scale": {"tier": "warp"}}, "base.scale.tier"),
            # Not the sweep's own top-level "output" block.
            ({"output": {"report": 5}}, "base.output.report"),
            # Files saved before the experiments hook was removed.
            ({"experiments": []}, "base.experiments"),
        ],
        ids=["scale.tier", "output.report", "experiments"],
    )
    def test_base_errors_carry_the_base_prefix(self, base_fields, path):
        data = _grid().to_dict()
        data["base"] = {**data["base"], **base_fields}
        with pytest.raises(SweepError) as excinfo:
            SweepSpec.from_dict(data)
        assert excinfo.value.field == path
        assert str(excinfo.value).startswith(f"{path}: ")


class TestExpansion:
    def test_cartesian_count_and_order(self):
        points = expand(_grid())
        assert len(points) == 4
        # First axis varies slowest.
        assert [p.axis_values["gap"] for p in points] == [20.0, 20.0, 40.0, 40.0]
        assert [p.axis_values["configuration"] for p in points] == [
            ["LMesh/ECM"], ["XBar/OCM"], ["LMesh/ECM"], ["XBar/OCM"],
        ]

    def test_zipped_axes_advance_in_lockstep(self):
        spec = coherence_sweep_spec(
            fractions=(0.0, 0.25), configurations=("XBar/OCM",)
        )
        points = expand(spec)
        assert len(points) == 2  # zipped label does not multiply the grid
        assert points[0].axis_values["label"] == "Uniform s=0"
        assert points[1].axis_values["label"] == "Uniform s=0.25"
        assert points[1].scenario.workloads[0].params["name"] == "Uniform s=0.25"
        assert points[1].scenario.workloads[0].sharing.fraction == 0.25

    def test_point_ids_deterministic_and_unique(self):
        first = [p.point_id for p in expand(_grid())]
        second = [p.point_id for p in expand(_grid())]
        assert first == second
        assert len(set(first)) == len(first)
        assert first[0].startswith("000-")

    def test_axis_values_are_applied_to_scenarios(self):
        points = expand(_grid())
        assert points[0].scenario.workloads[0].params["mean_gap_cycles"] == 20.0
        assert points[1].scenario.system.configurations == ("XBar/OCM",)

    def test_axis_can_create_missing_parents(self):
        # The base carries no coherence block and no sharing profile; axes
        # targeting fields inside them create the parents.
        spec = SweepSpec(
            base=_base(),
            axes=(
                SweepAxis(
                    name="threshold",
                    path="coherence.broadcast_threshold",
                    values=(2, 8),
                ),
                SweepAxis(
                    name="fraction",
                    path="workloads[0].sharing.fraction",
                    values=(0.1,),
                ),
            ),
        )
        points = expand(spec)
        assert points[0].scenario.coherence.broadcast_threshold == 2
        assert points[1].scenario.coherence.broadcast_threshold == 8
        assert points[0].scenario.workloads[0].sharing.fraction == 0.1

    def test_wildcard_applies_to_every_entry(self):
        base = replace(
            _base(),
            workloads=(
                WorkloadSpec(name="Uniform", num_requests=300),
                WorkloadSpec(name="Tornado", num_requests=300),
            ),
        )
        spec = SweepSpec(
            base=base,
            axes=(
                SweepAxis(
                    name="gap",
                    path="workloads[*].params.mean_gap_cycles",
                    values=(10.0, 30.0),
                ),
            ),
        )
        points = expand(spec)
        assert len(points) == 2
        for workload in points[1].scenario.workloads:
            assert workload.params["mean_gap_cycles"] == 30.0

    def test_scenario_level_error_names_field_and_point(self):
        spec = SweepSpec(
            base=_base(),
            axes=(
                SweepAxis(
                    name="fraction",
                    path="workloads[0].sharing.fraction",
                    values=(2.0,),  # invalid: fraction must be <= 1
                ),
            ),
        )
        with pytest.raises(SweepError, match="sharing") as excinfo:
            expand(spec)
        assert "point 000" in str(excinfo.value)


class TestEngine:
    def test_records_and_sinks_long_form(self, tmp_path):
        directory = tmp_path / "out"
        outcome = run_sweep(_grid(400), directory=directory)
        assert len(outcome.records) == 4  # one pair per point
        assert outcome.executed_point_ids == [p.point_id for p in outcome.points]
        # CSV: header + one long-form row per point.
        rows = list(
            csv.reader((directory / "results.csv").open(encoding="utf-8"))
        )
        assert rows[0] == long_form_columns(["gap", "configuration"])
        assert len(rows) == 1 + 4
        assert rows[0][:3] == ["point_id", "axis.gap", "axis.configuration"]
        # Every stored result field rides along.
        for column in RESULT_CSV_COLUMNS:
            assert column in rows[0]
        # JSON: full records with axis values and result dicts.
        payload = json.loads((directory / "results.json").read_text())
        assert payload["format"] == "corona-sweep-results/1"
        assert len(payload["records"]) == 4
        record = payload["records"][0]
        assert record["axis_values"]["gap"] == 20.0
        assert record["result"]["configuration"] == "LMesh/ECM"
        assert (directory / MANIFEST_NAME).exists()
        assert (directory / "report.md").exists()
        # No record has coherence enabled, so no coherence cost table.
        assert "## Coherence cost" not in (directory / "report.md").read_text()

    def test_long_form_row_matches_columns(self):
        outcome = run_sweep(_grid(300))
        record = outcome.records[0]
        row = long_form_row(
            record.point_id, [record.axis_values["gap"]], record.result
        )
        assert len(row) == len(long_form_columns(["gap"]))
        assert row[0] == record.point_id
        assert row[2] == record.result.workload

    def test_traces_generated_once_per_distinct_workload(self):
        # The grid varies only the configuration axis for each gap value:
        # 4 points but only 2 distinct workload signatures.
        generated = []
        cache = TraceCache(on_generate=lambda key, packed: generated.append(key))
        outcome = run_sweep(_grid(300), trace_cache=cache)
        assert len(outcome.records) == 4
        assert cache.generations == 2
        assert len(generated) == 2
        assert len(cache) == 2

    def test_configuration_only_grid_generates_one_trace(self):
        spec = SweepSpec(
            base=_base(300),
            axes=(
                SweepAxis(
                    name="configuration",
                    path="system.configurations",
                    values=(
                        ["LMesh/ECM"], ["HMesh/ECM"], ["XBar/OCM"],
                    ),
                ),
            ),
        )
        cache = TraceCache()
        outcome = run_sweep(spec, trace_cache=cache)
        assert len(outcome.records) == 3
        assert cache.generations == 1

    def test_traces_generate_as_the_fan_out_reaches_each_point(self):
        # Each point's trace is generated just before its pairs replay, so
        # generation interleaves with the checkpoints instead of all landing
        # before the first replay.
        events = []
        cache = TraceCache(on_generate=lambda key, packed: events.append("generate"))
        base = replace(
            _base(300), system=SystemSpec(configurations=("XBar/OCM",))
        )
        spec = SweepSpec(
            base=base,
            axes=(SweepAxis(name="seed", path="scale.seed", values=(1, 2, 3)),),
        )
        run_sweep(
            spec, jobs=1, trace_cache=cache,
            on_point=lambda point, results: events.append("point"),
        )
        assert events == ["generate", "point"] * 3

    def test_unknown_workload_fails_before_any_point_runs(self, tmp_path):
        # Every pending point's matrix is built before the fan-out, so a bad
        # name in a later point fails before the first replay.
        directory = tmp_path / "out"
        spec = SweepSpec(
            base=_base(300),
            axes=(
                SweepAxis(
                    name="workload",
                    path="workloads[0].name",
                    values=("Uniform", "No Such Workload"),
                ),
            ),
        )
        seen = []
        with pytest.raises(SweepError, match="No Such Workload") as excinfo:
            run_sweep(
                spec, directory=directory,
                on_point=lambda point, results: seen.append(point.point_id),
            )
        # The error keeps the field path and names the failing point.
        assert excinfo.value.field == "workloads[0].name"
        assert "001-workload=No-Such-Workload" in str(excinfo.value)
        assert seen == []
        assert (directory / POINTS_NAME).read_text() == ""

    def test_serial_and_parallel_runs_bit_identical(self):
        # >= 12 points, one pair each (acceptance grid).
        spec = _grid(300, gaps=(10.0, 20.0, 30.0, 40.0, 50.0, 60.0))
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert len(serial.points) == 12
        assert [r.result for r in serial.records] == [
            r.result for r in parallel.records
        ]
        assert [r.point_id for r in serial.records] == [
            r.point_id for r in parallel.records
        ]

    def test_kill_and_resume_completes_without_reexecution(self, tmp_path):
        directory = tmp_path / "out"
        spec = _grid(300)

        class Kill(Exception):
            pass

        seen = []

        def killer(point, results):
            seen.append(point.point_id)
            if len(seen) == 2:
                raise Kill()

        with pytest.raises(Kill):
            run_sweep(spec, directory=directory, on_point=killer)
        lines = (directory / POINTS_NAME).read_text().strip().splitlines()
        assert len(lines) == 2  # two checkpointed points survived the kill
        status = sweep_status(directory)
        assert len(status.completed_ids) == 2
        assert not status.complete

        executed = []
        resumed = run_sweep(
            spec,
            directory=directory,
            on_point=lambda point, results: executed.append(point.point_id),
        )
        all_ids = [p.point_id for p in resumed.points]
        assert resumed.skipped_point_ids == all_ids[:2]
        assert resumed.executed_point_ids == all_ids[2:]
        assert executed == all_ids[2:]  # nothing re-executed
        assert sweep_status(directory).complete
        # The merged records equal an uninterrupted run's, in order.
        fresh = run_sweep(spec)
        assert [r.result for r in resumed.records] == [
            r.result for r in fresh.records
        ]

    def test_resume_refuses_a_different_grid(self, tmp_path):
        directory = tmp_path / "out"
        run_sweep(_grid(300), directory=directory)
        other = _grid(300, gaps=(20.0, 80.0))  # different axis values
        with pytest.raises(SweepError, match="different sweep"):
            run_sweep(other, directory=directory)
        # resume=False wipes the old checkpoints instead.
        outcome = run_sweep(other, directory=directory, resume=False)
        assert not outcome.skipped_point_ids

    def test_resume_tolerates_operational_field_changes(self, tmp_path):
        # jobs/name/output do not affect results, so editing them between
        # runs must not invalidate the checkpoints.
        directory = tmp_path / "out"
        run_sweep(_grid(300), directory=directory)
        edited = replace(_grid(300), name="renamed", jobs=2)
        outcome = run_sweep(edited, directory=directory)
        assert not outcome.executed_point_ids
        assert len(outcome.skipped_point_ids) == 4

    def test_resume_discards_a_half_written_checkpoint_line(self, tmp_path):
        # A kill mid-write leaves a partial trailing line; the resumed run
        # must truncate it (not append onto it) or no resume ever converges.
        directory = tmp_path / "out"
        spec = _grid(300)
        run_sweep(spec, directory=directory)
        points_path = directory / POINTS_NAME
        lines = points_path.read_text().splitlines(keepends=True)
        points_path.write_text("".join(lines[:2]) + lines[2][:40])
        assert len(sweep_status(directory).completed_ids) == 2
        resumed = run_sweep(spec, directory=directory)
        assert len(resumed.skipped_point_ids) == 2
        assert len(resumed.executed_point_ids) == 2
        # The file is clean again: a further resume executes nothing.
        again = run_sweep(spec, directory=directory)
        assert not again.executed_point_ids
        assert sweep_status(directory).complete

    def test_sweep_status_requires_a_manifest(self, tmp_path):
        with pytest.raises(SweepError, match="manifest"):
            sweep_status(tmp_path)

    def test_stock_sweep_digests_are_pinned(self):
        # A directory resumes only under the digest its manifest recorded,
        # so a spec-format change that moves these refuses every existing
        # sweep directory.
        assert spec_digest(coherence_sweep_spec()) == (
            "8e532cda06298f315281d3804ae7016c17b3229f7e7f4580897f71731364fa82"
        )
        assert spec_digest(sensitivity_sweep_spec()) == (
            "f9a3765b6cbb558d9c368a92e008286c93822787f51fa8ebadc42241ab7a0a19"
        )
        assert spec_digest(latency_throughput_sweep_spec(scale="quick")) == (
            "2c70d1799f4d3620cf9c47e1b6507d4baad080e7cb6726507a593b123bf0f72a"
        )


class TestReexpressedExperiments:
    def test_coherence_sweep_spec_reproduces_legacy_numbers_exactly(self):
        """The golden digests were recorded from the loop-based sweep the
        spec replaced; both job counts must reproduce them in order."""
        spec = coherence_sweep_spec(
            fractions=(0.0, 0.3),
            configurations=("LMesh/ECM", "XBar/OCM"),
            num_requests=1_000,
        )
        for jobs in (1, 2):
            outcome = run_sweep(spec, jobs=jobs)
            flat = digests(r.result for r in outcome.records)
            assert list(flat.items()) == list(SWEEP_1000.items())

    def test_coherence_experiment_emits_sinks_and_section(self, tmp_path):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        report_path = tmp_path / "sweep.md"
        outcome = run_sweep(
            coherence_sweep_spec(
                fractions=(0.3,),
                configurations=("LMesh/ECM", "XBar/OCM"),
                num_requests=400,
                output=OutputSpec(
                    report=str(report_path),
                    json=str(json_path),
                    csv=str(csv_path),
                ),
            )
        )
        assert "## Coherence cost" in report_path.read_text()
        assert outcome.written["json"] == json_path
        assert outcome.written["csv"] == csv_path
        payload = json.loads(json_path.read_text())
        assert payload["format"] == "corona-sweep-results/1"
        assert len(payload["records"]) == 2  # one fraction x two systems

    def test_report_shows_a_shared_axis_column_once(self, tmp_path):
        """The grid's ``configuration`` axis and the records' own
        ``configuration`` column render as one column in each table."""
        report_path = tmp_path / "sweep.md"
        run_sweep(
            coherence_sweep_spec(
                fractions=(0.0, 0.3),
                configurations=("LMesh/ECM", "XBar/OCM"),
                num_requests=400,
                output=OutputSpec(report=str(report_path)),
            )
        )
        markdown = report_path.read_text()
        headers = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in markdown.splitlines()
            if line.startswith("| point |")
        ]
        assert len(headers) == 2  # the main table and the coherence table
        for header in headers:
            assert header.count("configuration") == 1
        assert "['LMesh/ECM']" not in markdown

    def test_configuration_axis_gets_no_aggregation_table(self, tmp_path):
        """Each ``configuration`` value holds one configuration's records, so
        its geomean table would be the main table's diagonal; the other
        axes keep theirs."""
        report_path = tmp_path / "sweep.md"
        run_sweep(
            coherence_sweep_spec(
                fractions=(0.0, 0.3),
                configurations=("LMesh/ECM", "XBar/OCM"),
                num_requests=400,
                output=OutputSpec(report=str(report_path)),
            )
        )
        markdown = report_path.read_text()
        assert "| fraction | LMesh/ECM | XBar/OCM |" in markdown
        assert "| label | LMesh/ECM | XBar/OCM |" in markdown
        assert "| configuration | LMesh/ECM | XBar/OCM |" not in markdown

    def test_single_configuration_axis_keeps_its_table(self, tmp_path):
        report_path = tmp_path / "sweep.md"
        run_sweep(
            sensitivity_sweep_spec(
                depths=(1, 4),
                num_requests=400,
                output=OutputSpec(report=str(report_path)),
            )
        )
        markdown = report_path.read_text()
        assert "## Axis aggregation" in markdown
        assert "| window | XBar/OCM |" in markdown

    def test_sensitivity_sweep_spec_expands(self):
        points = expand(sensitivity_sweep_spec(depths=(1, 4)))
        assert [p.axis_values["window"] for p in points] == [1, 4]
        assert points[1].scenario.workloads[0].params["window"] == 4

    def test_replay_only_window_axis_generates_one_trace(self):
        # window shapes the replay, not the trace; the cache must not
        # regenerate per depth (workloads declare replay_only_params).
        cache = TraceCache()
        outcome = run_sweep(
            sensitivity_sweep_spec(depths=(1, 4, 16), num_requests=600),
            trace_cache=cache,
        )
        assert len(outcome.records) == 3
        assert cache.generations == 1
        # The window still reached each replay (it rides the pair tuple,
        # not the trace): the point scenarios carry the swept values.
        assert [
            p.scenario.workloads[0].params["window"] for p in outcome.points
        ] == [1, 4, 16]


class TestSweepCli:
    def _write_spec(self, tmp_path):
        spec = _grid(300)
        path = tmp_path / "spec.json"
        spec.save(path)
        return spec, path

    def test_expand_lists_points(self, tmp_path, capsys):
        _spec, path = self._write_spec(tmp_path)
        assert main(["sweep", "expand", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 points" in out
        assert "000-" in out and "003-" in out

    def test_run_status_resume_flow(self, tmp_path, capsys):
        _spec, path = self._write_spec(tmp_path)
        directory = tmp_path / "out"
        assert main(
            ["sweep", "run", str(path), "--directory", str(directory),
             "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 records from 4 points" in out
        assert (directory / "results.csv").exists()
        assert main(["sweep", "status", str(directory)]) == 0
        assert "4/4 points complete" in capsys.readouterr().out
        # Re-running resumes: nothing executed.
        assert main(
            ["sweep", "run", str(path), "--directory", str(directory)]
        ) == 0
        assert "4 completed points skipped" in capsys.readouterr().out

    def test_run_registered_sweep_by_name(self, tmp_path, capsys):
        directory = tmp_path / "out"
        assert main(
            ["sweep", "run", "sensitivity", "--directory", str(directory)]
        ) == 0
        assert "records from 5 points" in capsys.readouterr().out

    def test_registered_factory_must_build_a_sweep_spec(self, monkeypatch):
        from repro.api import SWEEPS, RegistryError
        from repro.sweeps import build_registered_sweep

        # Register into a copy of the process-wide table, which monkeypatch
        # puts back afterwards, so later tests never see this entry.
        monkeypatch.setattr(SWEEPS, "_entries", dict(SWEEPS._entries))
        SWEEPS.register("Test/not-a-spec")(lambda **params: {"axes": []})
        with pytest.raises(RegistryError, match="expected SweepSpec"):
            build_registered_sweep("Test/not-a-spec")
        with pytest.raises(SystemExit, match="expected SweepSpec") as excinfo:
            main(["sweep", "expand", "Test/not-a-spec"])
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__

    def test_unknown_spec_argument_is_actionable(self):
        with pytest.raises(SystemExit, match="neither a sweep spec file"):
            main(["sweep", "run", "no-such-sweep"])

    def test_status_without_manifest_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["sweep", "status", str(tmp_path)])

    def test_sweep_error_is_scenario_error(self):
        # The CLI catches ScenarioError; SweepError must stay a subclass.
        assert issubclass(SweepError, ScenarioError)
