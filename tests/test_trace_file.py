"""Tests for :class:`repro.trace.file.TraceFileWorkload`: on-disk traces as
scenario- and sweep-addressable workloads, deterministic truncation, and the
``fixed_requests`` protocol of the scenario matrix."""

from __future__ import annotations

import pytest

from repro.analysis.runtime import scenario_digests
from repro.api import Scenario, ScenarioError, SystemSpec, WorkloadSpec, run
from repro.api.run import ScenarioMatrix
from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator
from repro.sweeps import SweepAxis, SweepSpec, run_sweep
from repro.trace.file import TraceFileWorkload, truncate_packed
from repro.trace.io import write_trace, write_trace_binary
from repro.trace.synthetic import uniform_workload
from tests.golden import TRACE_FILES, trace_file_scenario, write_trace_files


@pytest.fixture
def packed_trace():
    return uniform_workload().generate_packed(seed=7, num_requests=3_000)


@pytest.fixture
def binary_path(tmp_path, packed_trace):
    path = tmp_path / "uniform.trace.bin"
    write_trace_binary(packed_trace, path)
    return path


class TestTraceFileWorkload:
    def test_loads_either_format(self, tmp_path, packed_trace, binary_path):
        text_path = tmp_path / "uniform.trace"
        write_trace(packed_trace, text_path)
        from_binary = TraceFileWorkload(binary_path)
        from_text = TraceFileWorkload(text_path)
        assert from_binary.name == "Uniform"
        assert from_binary.fixed_requests == 3_000
        assert from_binary.num_clusters == 64
        assert not from_binary.is_synthetic
        # The text format rounds gaps to 4 decimals and drops the
        # description (documented); the exact columns must agree between
        # formats.
        binary_packed = from_binary.generate_packed()
        text_packed = from_text.generate_packed()
        assert binary_packed.header()._replace(description="") == (
            text_packed.header()._replace(description="")
        )
        assert bytes(memoryview(binary_packed.meta)) == bytes(
            memoryview(text_packed.meta)
        )
        assert bytes(memoryview(binary_packed.addresses)) == bytes(
            memoryview(text_packed.addresses)
        )

    def test_replay_matches_in_memory_trace(self, packed_trace, binary_path):
        workload = TraceFileWorkload(binary_path, window=8)
        configuration = configuration_by_name("XBar/OCM")
        direct = SystemSimulator(configuration, window_depth=8).run(packed_trace)
        from_file = SystemSimulator(configuration, window_depth=8).run(
            workload.generate_packed()
        )
        assert from_file == direct

    def test_truncation_is_deterministic_and_exact(self, binary_path):
        workload = TraceFileWorkload(binary_path)
        once = workload.generate_packed(num_requests=1_000)
        again = workload.generate_packed(num_requests=1_000)
        assert once.total_requests == 1_000
        assert once == again
        # Every kept segment is a prefix of the original thread's records.
        full = workload.generate_packed()
        full_by_thread = {
            t: (start, stop) for t, _c, start, stop in full.thread_segments()
        }
        for thread_id, _c, start, stop in once.thread_segments():
            f_start, f_stop = full_by_thread[thread_id]
            count = stop - start
            assert count <= f_stop - f_start
            assert list(once.meta[start:stop]) == list(
                full.meta[f_start:f_start + count]
            )

    def test_truncation_clamps_and_validates(self, binary_path, packed_trace):
        workload = TraceFileWorkload(binary_path)
        assert workload.generate_packed(num_requests=10_000) == packed_trace
        with pytest.raises(ValueError, match=">= 1"):
            truncate_packed(packed_trace, 0)

    def test_rename_via_param(self, binary_path):
        workload = TraceFileWorkload(binary_path, name="External")
        assert workload.name == "External"
        assert workload.generate_packed().name == "External"
        assert workload.generate_packed(num_requests=500).name == "External"

    def test_seed_is_ignored(self, binary_path):
        workload = TraceFileWorkload(binary_path)
        assert workload.generate_packed(seed=1) == workload.generate_packed(seed=99)

    def test_construction_reads_only_the_header(self, binary_path):
        # Sweep engines build a fresh workload per grid point; the columns
        # must not load until a trace is actually needed.
        workload = TraceFileWorkload(binary_path)
        assert workload._packed is None
        assert workload.fixed_requests == 3_000  # header-only for binary
        assert workload._packed is None
        workload.generate_packed()
        assert workload._packed is not None

    def test_text_names_with_spaces_round_trip(self, tmp_path):
        # The sweep labels ('Uniform s=0.3') contain spaces; the text
        # header quotes the name and the parser must keep it whole.
        trace = uniform_workload(name="Uniform s=0.3").generate_packed(
            seed=1, num_requests=300
        )
        path = tmp_path / "shared.trace"
        write_trace(trace, path)
        workload = TraceFileWorkload(path)
        assert workload.name == "Uniform s=0.3"
        assert workload.generate_packed().name == "Uniform s=0.3"


class TestScenarioIntegration:
    def _scenario(self, binary_path, **workload_fields) -> Scenario:
        return Scenario(
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(
                WorkloadSpec(
                    name="trace-file",
                    params={"path": str(binary_path), "window": 8},
                    **workload_fields,
                ),
            ),
        )

    def test_registered_and_scenario_runnable(self, binary_path, packed_trace):
        result = run(self._scenario(binary_path))
        assert len(result.results) == 1
        # Whole file replayed regardless of the scale tier.
        assert result.results[0].num_requests == 3_000
        direct = SystemSimulator(
            configuration_by_name("XBar/OCM"), window_depth=8
        ).run(packed_trace)
        assert result.results[0] == direct

    def test_num_requests_caps_the_replay(self, binary_path):
        result = run(self._scenario(binary_path, num_requests=800))
        assert result.results[0].num_requests == 800

    def test_matrices_honor_fixed_requests(self, binary_path):
        matrix = ScenarioMatrix(self._scenario(binary_path))
        assert matrix.requests_for(matrix.workloads()[0]) == 3_000

    def test_excluded_from_default_expansion(self):
        matrix = ScenarioMatrix(Scenario())
        assert "trace-file" not in matrix.workload_names()

    def test_missing_path_is_a_scenario_error(self, tmp_path):
        scenario = Scenario(
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(
                WorkloadSpec(
                    name="trace-file",
                    params={"path": str(tmp_path / "missing.bin")},
                ),
            ),
        )
        with pytest.raises(ScenarioError, match=r"workloads\[0\].params"):
            ScenarioMatrix(scenario)

    def test_sweep_addressable(self, binary_path):
        # The ROADMAP item: external traces as sweep-able workloads.  Sweep
        # the replay window of the on-disk trace across two systems; the
        # trace is read/generated once per distinct workload signature.
        spec = SweepSpec(
            name="trace-window",
            base=Scenario(
                system=SystemSpec(configurations=("XBar/OCM",)),
                workloads=(
                    WorkloadSpec(
                        name="trace-file",
                        params={"path": str(binary_path), "window": 4},
                        num_requests=600,
                    ),
                ),
            ),
            axes=(
                SweepAxis(
                    name="window",
                    path="workloads[0].params.window",
                    values=(2, 8),
                ),
                SweepAxis(
                    name="configuration",
                    path="system.configurations",
                    values=(["LMesh/ECM"], ["XBar/OCM"]),
                ),
            ),
        )
        outcome = run_sweep(spec)
        assert len(outcome.records) == 4
        assert {r.result.num_requests for r in outcome.records} == {600}


class TestGoldenReplay:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_text_and_binary_files_match_goldens(self, tmp_path, jobs):
        """A text file (gaps rounded to 4 decimals) and a binary file of
        the same trace each replay to their pinned digests."""
        text_path, binary_path = write_trace_files(tmp_path)
        scenario = trace_file_scenario(text_path, binary_path)
        assert scenario_digests(scenario, jobs=jobs) == TRACE_FILES
