"""Tests for the open-loop arrival layer: the frozen ArrivalSpec and its
scenario round-trip, deterministic trace materialization (with bit-identity
to pre-arrival traces when disabled), the simulator's open-loop replay and
sojourn statistics, knee detection, the latency-throughput stock sweep
(serial/parallel equivalence included), the public field-path writers, and
the CLI's shared execution flags."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Scenario, ScenarioError, SystemSpec, WorkloadSpec, set_field
from repro.api.registry import build_configuration, build_workload
from repro.cli import main
from repro.core.system import SystemSimulator
from repro.obs.spec import ObservabilitySpec
from repro.sweeps import expand, run_sweep
from repro.sweeps.library import latency_throughput_sweep_spec
from repro.sweeps.saturation import detect_knee, saturation_report_section
from repro.trace.arrival import (
    GAP_CLOCK_HZ,
    ArrivalError,
    ArrivalSpec,
    arrival_streams,
)

#: Column digests of seed-1, 2000-request traces at the commit before the
#: arrival layer existed (meta + addresses + gaps, in that order).  Closed-
#: loop generation must never drift from these.
GOLDEN_UNIFORM_SHA = (
    "717806191e21654d65c59663758c8ba38eb6b9d4c38f165d2f9db80239002ac7"
)
GOLDEN_BARNES_SHA = (
    "eaa9cbccdb63b93d8f09602ecc7127c43c3a05d66f851ce97831b6025697d07f"
)

#: XBar/OCM replay of the golden Uniform trace at the same commit.
GOLDEN_REPLAY = {
    "average_latency_s": 3.02451898198455e-08,
    "p99_latency_s": 5.5e-08,
    "execution_time_s": 1.605499999999998e-07,
}


def _digest(trace) -> str:
    h = hashlib.sha256()
    for column in (trace.meta, trace.addresses, trace.gaps):
        h.update(
            column.tobytes() if hasattr(column, "tobytes") else bytes(column)
        )
    return h.hexdigest()


def _replay(workload, configuration="XBar/OCM", seed=1, num_requests=2000):
    trace = workload.generate_packed(seed=seed, num_requests=num_requests)
    simulator = SystemSimulator(
        build_configuration(configuration), window_depth=workload.window
    )
    return simulator.run(trace)


class TestArrivalSpec:
    def test_default_is_closed_and_disabled(self):
        spec = ArrivalSpec()
        assert spec.process == "closed"
        assert not spec.enabled
        assert spec.offered_rps() == 0.0

    def test_round_trip_is_exact(self):
        spec = ArrivalSpec(
            process="mmpp",
            rate_rps=1e9,
            burst_rate_rps=1e10,
            burst_fraction=0.25,
            seed=7,
        )
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_offered_rps(self):
        assert ArrivalSpec(process="poisson", rate_rps=2e9).offered_rps() == 2e9
        mmpp = ArrivalSpec(
            process="mmpp", rate_rps=1e8, burst_rate_rps=1e10, burst_fraction=0.5
        )
        assert mmpp.offered_rps() == pytest.approx(0.5 * 1e8 + 0.5 * 1e10)

    def test_unknown_key_is_named(self):
        with pytest.raises(ArrivalError, match="bogus"):
            ArrivalSpec.from_dict({"process": "poisson", "bogus": 1})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(process="uniform"), "process"),
            (dict(process="poisson"), "rate_rps"),
            (dict(process="poisson", rate_rps=-1.0), "rate_rps"),
            (dict(process="poisson", rate_rps=True), "rate_rps"),
            (dict(process="mmpp", rate_rps=1e9), "burst_rate_rps"),
            (
                dict(process="mmpp", rate_rps=1e9, burst_rate_rps=1e8,
                     burst_fraction=0.5),
                "burst_rate_rps",
            ),
            (
                dict(process="mmpp", rate_rps=1e9, burst_rate_rps=1e10,
                     burst_fraction=1.5),
                "burst_fraction",
            ),
            (dict(process="closed", rate_rps=1e9), "rate_rps"),
            (dict(seed=1.5), "seed"),
        ],
    )
    def test_validation_names_the_field(self, kwargs, field):
        with pytest.raises(ArrivalError) as excinfo:
            ArrivalSpec(**kwargs)
        assert excinfo.value.field == field


class TestScenarioArrival:
    def _scenario(self, arrival):
        return Scenario(
            name="t",
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(
                WorkloadSpec(name="Uniform", arrival=arrival, num_requests=100),
            ),
        )

    def test_round_trip_with_arrival(self):
        scenario = self._scenario(ArrivalSpec(process="poisson", rate_rps=1e9))
        data = scenario.to_dict()
        assert data["workloads"][0]["arrival"]["process"] == "poisson"
        assert Scenario.from_dict(data) == scenario

    def test_round_trip_without_arrival(self):
        scenario = self._scenario(None)
        data = scenario.to_dict()
        assert data["workloads"][0]["arrival"] is None
        assert Scenario.from_dict(data) == scenario

    def test_bad_arrival_error_names_the_path(self):
        data = self._scenario(None).to_dict()
        data["workloads"][0]["arrival"] = {"process": "poisson", "rate_rps": -1}
        with pytest.raises(ScenarioError) as excinfo:
            Scenario.from_dict(data)
        assert excinfo.value.field == "workloads[0].arrival.rate_rps"

    def test_with_field_writes_arrival(self):
        scenario = self._scenario(None)
        edited = scenario.with_field(
            "workloads[*].arrival", {"process": "poisson", "rate_rps": 5e9}
        )
        assert edited.workloads[0].arrival == ArrivalSpec(
            process="poisson", rate_rps=5e9
        )
        # The original is untouched (with_field round-trips through dicts).
        assert scenario.workloads[0].arrival is None

    def test_with_field_rejects_bad_paths(self):
        scenario = self._scenario(None)
        with pytest.raises(ScenarioError, match="out of range"):
            scenario.with_field("workloads[3].arrival", None)

    def test_set_field_mutates_dicts_in_place(self):
        data = self._scenario(None).to_dict()
        set_field(data, "workloads[*].arrival.rate_rps", 7e9)
        assert data["workloads"][0]["arrival"]["rate_rps"] == 7e9


class TestTraceMaterialization:
    def test_closed_loop_uniform_matches_golden(self):
        trace = build_workload("Uniform").generate_packed(seed=1, num_requests=2000)
        assert _digest(trace) == GOLDEN_UNIFORM_SHA

    def test_closed_loop_splash_matches_golden(self):
        trace = build_workload("Barnes").generate_packed(seed=1, num_requests=2000)
        assert _digest(trace) == GOLDEN_BARNES_SHA

    def test_arrival_none_is_bit_identical(self):
        explicit = build_workload("Uniform", arrival=None).generate_packed(
            seed=1, num_requests=2000
        )
        assert _digest(explicit) == GOLDEN_UNIFORM_SHA

    def test_open_loop_metadata_rides_the_trace(self):
        workload = build_workload(
            "Uniform", arrival=ArrivalSpec(process="poisson", rate_rps=1e10)
        )
        trace = workload.generate_packed(seed=1, num_requests=2000)
        assert trace.arrival_process == "poisson"
        assert trace.offered_rps == 1e10
        header = trace.header()
        assert header.arrival_process == "poisson"
        assert header.offered_rps == 1e10

    def test_generation_is_deterministic(self):
        def build():
            workload = build_workload(
                "Uniform",
                arrival=ArrivalSpec(process="poisson", rate_rps=1e10, seed=3),
            )
            return workload.generate_packed(seed=1, num_requests=2000)

        assert _digest(build()) == _digest(build())

    def test_arrival_seed_changes_the_schedule(self):
        def build(arrival_seed):
            workload = build_workload(
                "Uniform",
                arrival=ArrivalSpec(
                    process="poisson", rate_rps=1e10, seed=arrival_seed
                ),
            )
            return workload.generate_packed(seed=1, num_requests=2000)

        assert _digest(build(0)) != _digest(build(1))

    def test_poisson_mean_gap_within_tolerance(self):
        rate = 1e10
        workload = build_workload(
            "Uniform", arrival=ArrivalSpec(process="poisson", rate_rps=rate)
        )
        trace = workload.generate_packed(seed=1, num_requests=20_000)
        gaps = list(trace.gaps)
        threads = len({t for t, _c, s, e in trace.thread_segments() if e > s})
        expected = GAP_CLOCK_HZ * threads / rate
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_mmpp_burst_and_idle_gap_scales(self):
        # One stream, 100x rate contrast: draws split into two clearly
        # separated scales whose ratio tracks idle_rate/burst_rate.  (The
        # finite-trace *mean* is arrival-count biased, so assert the ratio.)
        spec = ArrivalSpec(
            process="mmpp",
            rate_rps=1e8,
            burst_rate_rps=1e10,
            burst_fraction=0.5,
        )
        streams = arrival_streams(spec, num_threads=1, seed=1)
        thread = next(streams)
        draws = [thread.next_gap() for _ in range(20_000)]
        idle_gap = GAP_CLOCK_HZ / 1e8       # 50 cycles
        burst_gap = GAP_CLOCK_HZ / 1e10     # 0.5 cycles
        threshold = (idle_gap * burst_gap) ** 0.5
        burst_draws = [g for g in draws if g < threshold]
        idle_draws = [g for g in draws if g >= threshold]
        assert len(burst_draws) > 50 and len(idle_draws) > 50
        ratio = (sum(idle_draws) / len(idle_draws)) / (
            sum(burst_draws) / len(burst_draws)
        )
        assert 20 < ratio < 500  # expected ~100

    def test_disabled_stream_is_none(self):
        assert arrival_streams(None, num_threads=4, seed=1) is None
        assert arrival_streams(ArrivalSpec(), num_threads=4, seed=1) is None


class TestOpenLoopReplay:
    def test_closed_loop_replay_matches_golden(self):
        result = _replay(build_workload("Uniform"))
        assert result.average_latency_s == GOLDEN_REPLAY["average_latency_s"]
        assert result.p99_latency_s == GOLDEN_REPLAY["p99_latency_s"]
        assert result.execution_time_s == GOLDEN_REPLAY["execution_time_s"]
        # Closed loop carries no open-loop measurements.
        assert result.offered_rps == 0.0
        assert result.achieved_rps == 0.0
        assert not result.saturated
        assert result.p99_sojourn_ns == 0.0

    def test_below_capacity_keeps_up(self):
        workload = build_workload(
            "Uniform", arrival=ArrivalSpec(process="poisson", rate_rps=1e9)
        )
        result = _replay(workload)
        assert result.offered_rps > 0.0
        assert not result.saturated
        assert result.achieved_rps == pytest.approx(
            result.offered_rps, rel=0.05
        )
        assert result.p50_sojourn_ns <= result.p95_sojourn_ns
        assert result.p95_sojourn_ns <= result.p99_sojourn_ns

    def test_past_capacity_saturates_with_higher_sojourn(self):
        def run(rate):
            return _replay(
                build_workload(
                    "Uniform",
                    arrival=ArrivalSpec(process="poisson", rate_rps=rate),
                )
            )

        light, heavy = run(1e9), run(2.56e11)
        assert heavy.saturated
        assert heavy.achieved_rps < 0.95 * heavy.offered_rps
        assert heavy.p99_sojourn_ns > light.p99_sojourn_ns

    def test_metrics_sampler_emits_load_track(self, tmp_path):
        workload = build_workload(
            "Uniform", arrival=ArrivalSpec(process="poisson", rate_rps=1e10)
        )
        trace = workload.generate_packed(seed=1, num_requests=2000)
        simulator = SystemSimulator(
            build_configuration("XBar/OCM"),
            window_depth=workload.window,
            observability=ObservabilitySpec(
                metrics_path=str(tmp_path / "m.csv")
            ),
        )
        simulator.run(trace)
        rows = simulator._obs_metrics.rows
        metrics = {(row[1], row[2]) for row in rows}
        assert ("load", "offered_rps") in metrics
        assert ("load", "achieved_rps") in metrics

    def test_metrics_sampler_closed_loop_has_no_load_track(self, tmp_path):
        workload = build_workload("Uniform")
        trace = workload.generate_packed(seed=1, num_requests=2000)
        simulator = SystemSimulator(
            build_configuration("XBar/OCM"),
            window_depth=workload.window,
            observability=ObservabilitySpec(
                metrics_path=str(tmp_path / "m.csv")
            ),
        )
        simulator.run(trace)
        resources = {row[1] for row in simulator._obs_metrics.rows}
        assert "load" not in resources


class TestOpenLoopGolden:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_open_loop_pair_matches_golden(self, jobs):
        """The arrival metadata rides the packed trace through the harness
        (and through worker shipping), so the open-loop pair replays with
        open-loop semantics and reproduces its pinned digest."""
        from repro.analysis.runtime import scenario_digests
        from tests.golden import POISSON_UNIFORM, poisson_uniform_scenario

        assert scenario_digests(poisson_uniform_scenario(), jobs=jobs) == (
            POISSON_UNIFORM
        )


class TestKneeDetection:
    def test_delivery_ratio_knee(self):
        offered = [1e9, 2e9, 4e9, 8e9]
        achieved = [1e9, 2e9, 3.5e9, 4e9]  # 4e9 point delivers 87.5%
        p99 = [30.0, 31.0, 35.0, 60.0]
        assert detect_knee(offered, achieved, p99) == 2

    def test_p99_inflection_knee(self):
        offered = [1e9, 2e9, 4e9]
        achieved = [1e9, 2e9, 4e9]  # keeps up throughout
        p99 = [30.0, 32.0, 70.0]  # but the tail blows past 2x
        assert detect_knee(offered, achieved, p99) == 2

    def test_no_knee(self):
        offered = [1e9, 2e9]
        achieved = [0.99e9, 1.98e9]
        p99 = [30.0, 31.0]
        assert detect_knee(offered, achieved, p99) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatched"):
            detect_knee([1.0], [1.0, 2.0], [1.0])

    def test_report_section_empty_without_open_loop_records(self):
        assert saturation_report_section([]) == []


class TestLatencyThroughputSweep:
    def test_spec_shape(self):
        spec = latency_throughput_sweep_spec(scale="quick")
        points = expand(spec)
        assert len(points) == 5 * 2  # quick ladder x two configurations
        rates = {p.axis_values["rate_rps"] for p in points}
        assert len(rates) == 5
        base_arrival = spec.base.workloads[0].arrival
        assert base_arrival is not None and base_arrival.process == "poisson"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            latency_throughput_sweep_spec(scale="huge")

    def test_registered_name_accepts_scale(self):
        from repro.sweeps import build_registered_sweep

        spec = build_registered_sweep("latency-throughput", scale="quick")
        assert spec.name == "latency-throughput"

    def test_jobs_parallel_matches_serial(self):
        def outcome(jobs):
            spec = latency_throughput_sweep_spec(
                rates=(4e9, 6.4e10),
                configurations=("XBar/OCM",),
                num_requests=1000,
                scale="quick",
            )
            return run_sweep(spec, jobs=jobs)

        serial, parallel = outcome(1), outcome(2)
        assert [r.result.to_dict() for r in serial.records] == [
            r.result.to_dict() for r in parallel.records
        ]

    def test_quick_sweep_finds_knees_with_monotonic_p99(self, tmp_path):
        spec = latency_throughput_sweep_spec(scale="quick", num_requests=1000)
        outcome = run_sweep(spec, directory=tmp_path, jobs=2)
        by_config = {}
        for record in outcome.records:
            by_config.setdefault(record.result.configuration, []).append(
                record.result
            )
        for name in ("XBar/OCM", "LMesh/ECM"):
            results = sorted(by_config[name], key=lambda r: r.offered_rps)
            knee = detect_knee(
                [r.offered_rps for r in results],
                [r.achieved_rps for r in results],
                [r.p99_sojourn_ns for r in results],
            )
            assert knee is not None, name
            tail = [r.p99_sojourn_ns for r in results[max(knee - 1, 0):]]
            assert tail == sorted(tail), (name, tail)
        report = (tmp_path / "report.md").read_text(encoding="utf-8")
        assert "Latency-throughput saturation" in report
        header = (
            (tmp_path / "results.csv")
            .read_text(encoding="utf-8")
            .splitlines()[0]
        )
        for column in (
            "offered_rps", "achieved_rps", "saturated",
            "p50_sojourn_ns", "p95_sojourn_ns", "p99_sojourn_ns",
        ):
            assert column in header


class TestDeprecatedCommands:
    def test_run_does_not_warn(self, tmp_path, recwarn):
        path = tmp_path / "s.json"
        Scenario(
            name="t",
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(WorkloadSpec(name="Uniform", num_requests=300),),
        ).save(path)
        assert main(["run", str(path)]) == 0
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestSharedExecutionFlags:
    #: The flags `run` and `sweep run` must both accept (defined once in
    #: the shared parent parser).
    SHARED = (
        "--jobs", "--timeout", "--retries", "--allow-failures",
        "--progress", "--metrics-out", "--timeline-out", "--verbose",
    )

    def test_both_subcommands_accept_the_shared_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        run_args = parser.parse_args(
            ["run", "s.json", "--jobs", "2", "--timeout", "5",
             "--retries", "1", "--allow-failures", "--progress",
             "--metrics-out", "m.csv", "--timeline-out", "t.json",
             "--verbose"]
        )
        sweep_args = parser.parse_args(
            ["sweep", "run", "spec.json", "--jobs", "2", "--timeout", "5",
             "--retries", "1", "--allow-failures", "--progress",
             "--metrics-out", "m.csv", "--timeline-out", "t.json",
             "--verbose"]
        )
        for args in (run_args, sweep_args):
            assert args.jobs == 2
            assert args.timeout == 5.0
            assert args.retries == 1
            assert args.allow_failures is True
            assert args.progress is True
            assert args.metrics_out == "m.csv"
            assert args.timeline_out == "t.json"
            assert args.verbose is True

    def test_scale_applies_to_registered_sweeps_only(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit, match="registered sweep names only"):
            main(
                ["sweep", "run", str(spec_file), "--scale", "quick"]
            )
