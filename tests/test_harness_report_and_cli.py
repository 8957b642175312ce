"""Tests for the markdown report, the sensitivity sweeps, the address-level
workloads and the command-line interface."""

import dataclasses

import pytest

from repro.api import OutputSpec, ScaleSpec, Scenario, SystemSpec, WorkloadSpec, run
from repro.cli import build_parser, main
from repro.harness.sensitivity import (
    SweepPoint,
    format_sweep,
    required_laser_power_sensitivity,
    ring_through_loss_sensitivity,
    waveguide_loss_sensitivity,
)
from repro.sweeps import SweepAxis, SweepSpec, run_sweep, sensitivity_sweep_spec
from repro.trace.address import (
    AccessPattern,
    AddressWorkload,
    random_shared_workload,
    resident_workload,
    streaming_workload,
)
from tests.golden import tiny_scenario


class TestReport:
    def test_run_report_renders(self):
        report = run(tiny_scenario()).report
        markdown = report.to_markdown()
        assert "# Corona reproduction report" in markdown
        assert "Figure 8" in markdown and "Figure 11" in markdown
        assert "Table 1" in markdown
        assert "| Workload |" in markdown
        assert "XBar/OCM" in markdown

    def test_report_summary_and_write(self, tmp_path):
        path = tmp_path / "report.md"
        scenario = dataclasses.replace(
            tiny_scenario(), output=OutputSpec(report=str(path))
        )
        report = run(scenario).report
        summary = report.summary()
        assert "corona_over_baseline_synthetic" in summary
        assert summary["corona_over_baseline_synthetic"] > 0
        assert path.exists()
        assert path.read_text().startswith("# Corona reproduction report")

    def test_run_report_parallel_jobs_matches_serial(self):
        serial = run(tiny_scenario(), jobs=1).report
        parallel = run(tiny_scenario(), jobs=2).report
        assert parallel.results == serial.results
        assert parallel.to_markdown().splitlines()[0] == "# Corona reproduction report"


class TestSensitivity:
    def test_waveguide_loss_sweep_shows_feasibility_cliff(self):
        points = waveguide_loss_sensitivity()
        assert points[0].feasible
        assert not points[-1].feasible
        margins = [p.metric for p in points]
        assert margins == sorted(margins, reverse=True)

    def test_ring_loss_sweep_monotone(self):
        points = ring_through_loss_sensitivity()
        margins = [p.metric for p in points]
        assert margins == sorted(margins, reverse=True)
        assert points[0].feasible

    def test_laser_power_grows_with_loss(self):
        points = required_laser_power_sensitivity()
        powers = [p.metric for p in points]
        assert powers == sorted(powers)

    def test_window_sweep_monotone_nondecreasing(self):
        outcome = run_sweep(
            sensitivity_sweep_spec(depths=(1, 4, 8), num_requests=1200)
        )
        values = [r.result.achieved_bandwidth_bytes_per_s for r in outcome.records]
        assert values[1] > values[0]
        assert values[2] >= values[1] * 0.95

    def test_channel_bandwidth_sweep(self):
        spec = SweepSpec(
            name="channel-width",
            base=Scenario(
                system=SystemSpec(configurations=("XBar/OCM",)),
                workloads=(WorkloadSpec(name="Uniform", num_requests=1200),),
                scale=ScaleSpec(tier="quick", seed=1),
            ),
            axes=(
                SweepAxis(
                    name="waveguides",
                    path="system.overrides.crossbar_waveguides_per_channel",
                    values=(1, 4),  # 80 and 320 GB/s per channel
                ),
            ),
        )
        narrow, full = (
            r.result.achieved_bandwidth_bytes_per_s for r in run_sweep(spec).records
        )
        assert full >= narrow

    def test_format_sweep(self):
        text = format_sweep(
            "demo", [SweepPoint(1.0, 2.0), SweepPoint(2.0, 1.0, feasible=False)],
            "x", "y",
        )
        assert "demo" in text and "NO" in text


class TestAddressWorkloads:
    def test_streaming_misses_heavily(self):
        workload = streaming_workload(accesses_per_thread=400, threads_per_cluster=4)
        trace, hierarchies = workload.generate(seed=1, clusters=2)
        assert trace.total_requests > 0
        assert hierarchies[0].l2_miss_rate() > 0.5

    def test_resident_workload_rarely_misses(self):
        workload = resident_workload(accesses_per_thread=400, threads_per_cluster=4)
        trace, hierarchies = workload.generate(seed=1, clusters=1)
        streaming = streaming_workload(accesses_per_thread=400, threads_per_cluster=4)
        streaming_trace, _ = streaming.generate(seed=1, clusters=1)
        assert trace.total_requests < streaming_trace.total_requests

    def test_random_shared_spreads_homes(self):
        workload = random_shared_workload(
            accesses_per_thread=300, threads_per_cluster=4
        )
        trace, _ = workload.generate(seed=1, clusters=2)
        assert len(trace.destination_histogram()) > 8

    def test_generated_trace_is_replayable(self, small_config):
        from repro.core.configs import configuration_by_name
        from repro.core.system import SystemSimulator

        workload = streaming_workload(
            accesses_per_thread=200,
            threads_per_cluster=2,
            num_clusters=16,
        )
        trace, _ = workload.generate(seed=1, clusters=4)
        result = SystemSimulator(
            configuration_by_name("XBar/OCM"), corona_config=small_config
        ).run(trace)
        assert result.num_requests == trace.total_requests

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AddressWorkload(name="x", pattern=AccessPattern.STREAMING,
                            accesses_per_thread=0)
        with pytest.raises(ValueError):
            streaming_workload().generate(clusters=0)


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["tables"])
        assert args.command == "tables"

    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 4" in out

    def test_inventory_command(self, capsys):
        assert main(["inventory", "--clusters", "16"]) == 0
        out = capsys.readouterr().out
        assert "Crossbar" in out

    def test_power_command(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "penryn" in out and "optical" in out

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "waveguide loss" in out


class TestScenarioCli:
    """The Scenario API subcommands: run / scenario init|validate|list /
    trace info|convert."""

    def _init_small_scenario(self, tmp_path, capsys):
        """init a one-pair template and shrink it for test speed."""
        import json

        path = tmp_path / "scenario.json"
        assert main([
            "scenario", "init", str(path),
            "--configurations", "XBar/OCM",
            "--workloads", "Uniform",
        ]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        data["scale"]["synthetic_requests"] = 500
        path.write_text(json.dumps(data))
        return path

    def test_init_validate_run_flow(self, tmp_path, capsys):
        path = self._init_small_scenario(tmp_path, capsys)
        assert main(["scenario", "validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["run", str(path)]) == 0
        assert "# Corona reproduction report" in capsys.readouterr().out

    def test_run_writes_derived_sinks(self, tmp_path, capsys):
        path = self._init_small_scenario(tmp_path, capsys)
        report = tmp_path / "report.md"
        assert main(["run", str(path), "--output", str(report)]) == 0
        out = capsys.readouterr().out
        assert "report written to" in out
        assert report.exists()
        assert report.with_suffix(".results.json").exists()
        assert report.with_suffix(".results.csv").exists()

    def test_init_rejects_unknown_configuration(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown configuration"):
            main([
                "scenario", "init", str(tmp_path / "s.json"),
                "--configurations", "Bogus/XYZ",
            ])
        assert not (tmp_path / "s.json").exists()

    def test_init_refuses_overwrite(self, tmp_path, capsys):
        path = self._init_small_scenario(tmp_path, capsys)
        with pytest.raises(SystemExit, match="--force"):
            main(["scenario", "init", str(path)])
        assert main(["scenario", "init", str(path), "--force",
                     "--workloads", "Neighbor"]) == 0

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"scale": {"tier": "warp"}}', "scale.tier"),
            (
                '{"scale": {"splash_min_requests": 0, "splash_max_requests": 0}}',
                "scale: splash_min_requests must be >= 1",
            ),
        ],
        ids=["unknown-tier", "zero-splash-minimum"],
    )
    def test_validate_reports_bad_field(self, tmp_path, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit, match=field):
            main(["scenario", "validate", str(path)])

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"memory_latency_s": 0}, "memory_latency_s"),
            ({"cluster": {"l2_mshrs": 0}}, "cluster.l2_mshrs"),
            ({"cluster": {"hub_queue_depth": 0}}, "cluster.hub_queue_depth"),
            (
                {"crossbar_wavelengths_per_waveguide": 0},
                "crossbar_wavelengths_per_waveguide",
            ),
            (
                {"crossbar_waveguides_per_channel": 0},
                "crossbar_waveguides_per_channel",
            ),
            (
                {"crossbar_max_propagation_cycles": -5},
                "crossbar_max_propagation_cycles",
            ),
            ({"token_ring_round_trip_cycles": -8}, "token_ring_round_trip_cycles"),
        ],
        ids=[
            "memory_latency_s",
            "l2_mshrs",
            "hub_queue_depth",
            "crossbar_wavelengths_per_waveguide",
            "crossbar_waveguides_per_channel",
            "crossbar_max_propagation_cycles",
            "token_ring_round_trip_cycles",
        ],
    )
    def test_out_of_range_replay_override_fails_cleanly(
        self, tmp_path, overrides, field
    ):
        """Overrides that reach the replay are range-checked when the file
        loads: both commands exit 1 with the field path, no traceback."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"system": {"overrides": overrides}}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for command in (["scenario", "validate"], ["run"]):
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", *command, str(path)],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert completed.returncode == 1, completed.stdout
            assert f"{path}: system.overrides.{field}: " in completed.stderr
            assert "Traceback" not in completed.stderr

    @pytest.mark.parametrize(
        "text", ["{}", '{"workloads": []}'], ids=["empty", "no-workloads"]
    )
    def test_validate_counts_the_default_workloads(self, tmp_path, capsys, text):
        """No workloads means the 17 default ones, not the explicit-only
        registry entries too."""
        path = tmp_path / "default.json"
        path.write_text(text)
        assert main(["scenario", "validate", str(path)]) == 0
        assert "5 configurations x 17 workloads = 85 pairs" in capsys.readouterr().out

    def test_run_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", str(tmp_path / "nope.json")])

    def test_scenario_list_shows_registries(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for expected in ("XBar/OCM", "Uniform", "Water-Sp", "coherence-sweep"):
            assert expected in out

    def test_trace_info_and_convert(self, tmp_path, capsys):
        from repro.trace.io import read_trace_binary, write_trace
        from repro.trace.synthetic import uniform_workload

        text_path = tmp_path / "uni.trace"
        write_trace(
            uniform_workload().generate_packed(seed=1, num_requests=600), text_path
        )
        assert main(["trace", "info", str(text_path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "600" in out

        binary_path = tmp_path / "uni.bin"
        assert main([
            "trace", "convert", str(text_path), str(binary_path),
        ]) == 0
        capsys.readouterr()
        assert read_trace_binary(binary_path).total_requests == 600

        # auto direction: binary input converts back to text.
        round_trip = tmp_path / "round.trace"
        assert main([
            "trace", "convert", str(binary_path), str(round_trip),
        ]) == 0
        assert round_trip.read_text() == text_path.read_text()

    def test_trace_info_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"not a trace at all")
        with pytest.raises(SystemExit, match="neither"):
            main(["trace", "info", str(path)])

    def test_trace_info_names_the_bad_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            "# corona-trace v1 name='x' clusters=4 threads_per_cluster=2\n"
            "0 1 R 40 1.0 64\n"
            "1 9 R 80 1.0 64\n"
        )
        with pytest.raises(SystemExit, match=r"bad\.trace:3: home cluster 9"):
            main(["trace", "info", str(path)])
