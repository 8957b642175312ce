"""Tests for the fault-injection subsystem (`repro.faults`): spec
validation and round-trips, the Scenario wiring, deterministic draws, the
inactive-spec identity (``faults: null`` == all-zero spec == no faults),
each fault model's effect on its counters and metrics, serial/parallel
bit-equivalence under faults, and sweepable fault axes."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    ScaleSpec,
    Scenario,
    ScenarioError,
    SystemSpec,
    WorkloadSpec,
    run,
)
from repro.faults import FaultSpec
from repro.faults.determinism import stable_uniform
from repro.faults.inject import FaultInjector, build_injector
from repro.sweeps import SweepAxis, SweepSpec, run_sweep

#: A spec exercising every fault model at once.
ALL_FAULTS = {
    "seed": 9,
    "ring_detuning_fraction": 0.002,
    "token_loss_rate": 0.02,
    "dead_link_fraction": 0.05,
    "dram_timeout_rate": 0.01,
}


def _scenario(
    configurations=("XBar/OCM", "HMesh/ECM"),
    faults=None,
    num_requests: int = 600,
    seed: int = 3,
) -> Scenario:
    return Scenario(
        name="faulty",
        system=SystemSpec(configurations=tuple(configurations)),
        workloads=(WorkloadSpec(name="Uniform", num_requests=num_requests),),
        scale=ScaleSpec(seed=seed),
        faults=faults,
    )


class TestFaultSpec:
    def test_default_spec_is_inactive(self):
        spec = FaultSpec()
        assert not spec.any_active

    def test_any_rate_activates(self):
        for field in (
            "ring_detuning_fraction",
            "token_loss_rate",
            "dead_link_fraction",
            "dram_timeout_rate",
        ):
            assert FaultSpec(**{field: 0.1}).any_active, field

    def test_dict_round_trip_is_exact(self):
        spec = FaultSpec(**ALL_FAULTS)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_probabilities_validated(self):
        for field in (
            "ring_detuning_fraction",
            "token_loss_rate",
            "dead_link_fraction",
            "dram_timeout_rate",
        ):
            with pytest.raises(ScenarioError) as err:
                FaultSpec(**{field: 1.5})
            assert err.value.field == field
            with pytest.raises(ScenarioError):
                FaultSpec(**{field: -0.1})
            with pytest.raises(ScenarioError):
                FaultSpec(**{field: "high"})

    def test_seed_must_be_nonnegative_integer(self):
        with pytest.raises(ScenarioError) as err:
            FaultSpec(seed=-1)
        assert err.value.field == "seed"
        with pytest.raises(ScenarioError):
            FaultSpec(seed=1.5)
        with pytest.raises(ScenarioError):
            FaultSpec(seed=True)

    def test_integral_float_seed_coerced_from_dict(self):
        # JSON numbers may arrive as floats; 3.0 is an acceptable seed.
        assert FaultSpec.from_dict({"seed": 3.0}).seed == 3

    def test_zero_bandwidth_scale_rejected(self):
        # A zero-bandwidth link would stall transfers forever.
        with pytest.raises(ScenarioError, match="deadlock"):
            FaultSpec(dead_link_fraction=0.5, dead_link_bandwidth_scale=0.0)

    def test_negative_latencies_rejected(self):
        with pytest.raises(ScenarioError):
            FaultSpec(token_regeneration_cycles=-1.0)
        with pytest.raises(ScenarioError):
            FaultSpec(dram_retry_latency_ns=-5.0)

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ScenarioError) as err:
            FaultSpec.from_dict({"cosmic_ray_rate": 0.5})
        assert err.value.field == "cosmic_ray_rate"

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="expected an object"):
            FaultSpec.from_dict(["not", "a", "mapping"])


class TestScenarioWiring:
    def test_scenario_round_trip_with_faults(self):
        scenario = _scenario(faults=FaultSpec(**ALL_FAULTS))
        again = Scenario.from_dict(scenario.to_dict())
        assert again.faults == scenario.faults
        assert again == scenario

    def test_faults_null_round_trips_to_none(self):
        scenario = _scenario()
        payload = scenario.to_dict()
        assert payload["faults"] is None
        assert Scenario.from_dict(payload).faults is None

    def test_bad_fault_field_is_scenario_error_with_path(self):
        payload = _scenario().to_dict()
        payload["faults"] = {"token_loss_rate": 2.0}
        with pytest.raises(ScenarioError, match=r"faults\.token_loss_rate"):
            Scenario.from_dict(payload)

    def test_unknown_fault_field_is_scenario_error(self):
        payload = _scenario().to_dict()
        payload["faults"] = {"bogus": 1}
        with pytest.raises(ScenarioError, match=r"faults\.bogus"):
            Scenario.from_dict(payload)


class TestDeterministicDraws:
    def test_uniform_range_and_repeatability(self):
        draws = [stable_uniform(5, 1, i) for i in range(200)]
        assert all(0.0 <= value < 1.0 for value in draws)
        assert draws == [stable_uniform(5, 1, i) for i in range(200)]

    def test_sites_and_seeds_decorrelate(self):
        assert stable_uniform(5, 1, 7) != stable_uniform(5, 2, 7)
        assert stable_uniform(5, 1, 7) != stable_uniform(6, 1, 7)

    def test_inactive_spec_builds_no_injector(self):
        assert build_injector(None) is None
        assert build_injector(FaultSpec()) is None
        assert isinstance(
            build_injector(FaultSpec(token_loss_rate=0.1)), FaultInjector
        )


@pytest.fixture(scope="module")
def fault_free_run():
    return run(_scenario(), jobs=1)


@pytest.fixture(scope="module")
def faulty_run():
    return run(_scenario(faults=FaultSpec(**ALL_FAULTS)), jobs=1)


class TestFaultFreeIdentity:
    def test_all_zero_spec_is_bit_identical_to_no_faults(self, fault_free_run):
        zeroed = run(_scenario(faults=FaultSpec(seed=123)), jobs=1)
        assert zeroed.results == fault_free_run.results
        assert all(not r.faults_enabled for r in zeroed.results)

    def test_fault_free_counters_are_zero(self, fault_free_run):
        for result in fault_free_run.results:
            assert not result.faults_enabled
            assert result.fault_tokens_lost == 0
            assert result.fault_wavelengths_disabled == 0
            assert result.fault_links_degraded == 0
            assert result.fault_dram_timeouts == 0


class TestFaultEffects:
    def test_faults_flag_and_counters_populate(self, faulty_run):
        by_config = {r.configuration: r for r in faulty_run.results}
        optical = by_config["XBar/OCM"]
        mesh = by_config["HMesh/ECM"]
        assert optical.faults_enabled and mesh.faults_enabled
        assert optical.fault_tokens_lost > 0
        assert optical.fault_wavelengths_disabled > 0
        assert optical.fault_token_regen_wait_s > 0.0

    def test_faults_slow_the_run_down(self, fault_free_run, faulty_run):
        clean = {r.configuration: r for r in fault_free_run.results}
        faulty = {r.configuration: r for r in faulty_run.results}
        for name in ("XBar/OCM", "HMesh/ECM"):
            assert (
                faulty[name].execution_time_s > clean[name].execution_time_s
            ), name

    def test_token_loss_only_hits_the_optical_arbiter(self):
        outcome = run(
            _scenario(faults=FaultSpec(token_loss_rate=0.05)), jobs=1
        )
        by_config = {r.configuration: r for r in outcome.results}
        assert by_config["XBar/OCM"].fault_tokens_lost > 0
        assert by_config["HMesh/ECM"].fault_tokens_lost == 0

    def test_dead_links_degrade_the_mesh(self):
        outcome = run(
            _scenario(faults=FaultSpec(dead_link_fraction=0.2)), jobs=1
        )
        by_config = {r.configuration: r for r in outcome.results}
        assert by_config["HMesh/ECM"].fault_links_degraded > 0

    def test_dram_timeouts_count_and_delay(self):
        outcome = run(
            _scenario(faults=FaultSpec(dram_timeout_rate=0.05)), jobs=1
        )
        for result in outcome.results:
            assert result.fault_dram_timeouts > 0
            assert result.fault_dram_retry_s > 0.0

    def test_detuned_wavelengths_scale_with_channel_width(self):
        """A crossbar channel is ``crossbar_channel_width_bits`` wavelengths
        wide, so every wavelength of a wider channel can detune."""
        disabled = {}
        for waveguides in (2, 4, 8):
            scenario = dataclasses.replace(
                _scenario(
                    configurations=("XBar/OCM",),
                    faults=FaultSpec(ring_detuning_fraction=0.1, seed=3),
                    num_requests=400,
                    seed=1,
                ),
                system=SystemSpec(
                    configurations=("XBar/OCM",),
                    overrides={"crossbar_waveguides_per_channel": waveguides},
                ),
            )
            (result,) = run(scenario, jobs=1).results
            disabled[waveguides] = result.fault_wavelengths_disabled
        # A wider channel keeps the narrower one's draws and adds its own.
        assert disabled[2] < disabled[4] < disabled[8]
        for waveguides, count in disabled.items():
            wavelengths = 64 * 64 * waveguides  # channels x channel width
            assert count == pytest.approx(0.1 * wavelengths, rel=0.1), waveguides

    def test_fault_seed_changes_the_schedule(self):
        one = run(
            _scenario(faults=FaultSpec(seed=1, token_loss_rate=0.05)), jobs=1
        )
        two = run(
            _scenario(faults=FaultSpec(seed=2, token_loss_rate=0.05)), jobs=1
        )
        lost = lambda outcome: [  # noqa: E731
            r.fault_tokens_lost for r in outcome.results
        ]
        assert lost(one) != lost(two)


class TestParallelDeterminismUnderFaults:
    def test_jobs_1_vs_2_bit_identical_with_faults(self, faulty_run):
        parallel = run(_scenario(faults=FaultSpec(**ALL_FAULTS)), jobs=2)
        assert len(parallel.results) == len(faulty_run.results)
        for serial, pooled in zip(faulty_run.results, parallel.results):
            for field in dataclasses.fields(serial):
                assert getattr(serial, field.name) == getattr(
                    pooled, field.name
                ), (serial.workload, serial.configuration, field.name)


class TestFaultedGoldens:
    """Every fault model at once on the crossbar, both meshes and the
    coherent replay, pinned to digests recorded before the per-miss
    host-cost edits (calendar, result tuples, token travel table)."""

    def test_faulted_pairs_match_golden(self):
        from repro.analysis.runtime import scenario_digests
        from tests.golden import FAULTED, faulted_scenario

        assert scenario_digests(faulted_scenario(), jobs=1) == FAULTED

    def test_faulted_coherent_pairs_match_golden(self):
        from repro.analysis.runtime import scenario_digests
        from tests.golden import FAULTED_COHERENT, faulted_coherent_scenario

        assert (
            scenario_digests(faulted_coherent_scenario(), jobs=1)
            == FAULTED_COHERENT
        )


class TestFaultSweeps:
    def test_fault_rate_axis_over_null_base(self):
        # The base scenario never mentions faults; the axis creates the node.
        spec = SweepSpec(
            name="token-loss",
            base=_scenario(
                configurations=("XBar/OCM",), num_requests=400
            ),
            axes=(
                SweepAxis(
                    name="loss",
                    path="faults.token_loss_rate",
                    values=(0.0, 0.05),
                ),
            ),
        )
        outcome = run_sweep(spec, jobs=1)
        assert [p.scenario.faults for p in outcome.points] == [
            FaultSpec(token_loss_rate=0.0),
            FaultSpec(token_loss_rate=0.05),
        ]
        by_point = {r.point_id: r.result for r in outcome.records}
        rates = {
            pid: result.fault_tokens_lost
            for pid, result in by_point.items()
        }
        assert rates["000-loss=0"] == 0
        assert rates["001-loss=0.05"] > 0
