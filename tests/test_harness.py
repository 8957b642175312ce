"""Tests for the experiment harness: scales, the scenario matrix, runs,
tables and figures."""

import dataclasses

import pytest

from repro.api import Scenario, WorkloadSpec, build_matrix, run
from repro.core.config import CORONA_DEFAULT
from repro.harness.experiments import (
    FULL_SCALE,
    QUICK_SCALE,
    ExperimentScale,
)
from repro.harness.figures import (
    PAPER_SPEEDUP_SUMMARY,
    figure10_latency,
    figure11_power,
    figure8_speedup,
    figure9_bandwidth,
    render_figure,
    speedup_summary,
)
from repro.harness.tables import (
    format_table,
    render_all_tables,
    table1_resource_configuration,
    table2_optical_inventory,
    table3_benchmarks,
    table4_memory_interconnects,
)
from tests.golden import SYNTHETIC_WORKLOADS, TINY_MATRIX, digests, tiny_scenario


def _explicit(*names: str) -> Scenario:
    return Scenario(workloads=tuple(WorkloadSpec(name=name) for name in names))


def _uniform_only(scenario: Scenario) -> Scenario:
    return dataclasses.replace(scenario, workloads=(WorkloadSpec(name="Uniform"),))


class TestExperimentScale:
    def test_default_scale_is_valid(self):
        scale = ExperimentScale()
        assert scale.synthetic_requests > 0
        assert 0 < scale.splash_fraction <= 1

    def test_splash_requests_clamped(self):
        scale = ExperimentScale(
            splash_fraction=1e-6, splash_min_requests=1000, splash_max_requests=5000
        )
        assert scale.splash_requests(240_000_000) == 1000
        scale = ExperimentScale(
            splash_fraction=0.5, splash_min_requests=1000, splash_max_requests=5000
        )
        assert scale.splash_requests(240_000_000) == 5000

    def test_named_scales(self):
        assert QUICK_SCALE.synthetic_requests < FULL_SCALE.synthetic_requests

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            ExperimentScale(synthetic_requests=0)
        with pytest.raises(ValueError):
            ExperimentScale(splash_fraction=0.0)
        with pytest.raises(ValueError):
            ExperimentScale(splash_min_requests=10, splash_max_requests=5)
        with pytest.raises(ValueError):
            ExperimentScale(splash_min_requests=0, splash_max_requests=0)


class TestScenarioMatrix:
    def test_default_scenario_is_5_by_17(self):
        matrix = build_matrix(Scenario())
        assert len(matrix.configurations()) == 5
        assert len(matrix.workloads()) == 17
        assert matrix.run_count() == 85

    def test_workload_names_in_paper_order(self):
        matrix = build_matrix(Scenario())
        names = matrix.workload_names()
        assert names[:6] == [
            "Uniform",
            "Hot Spot",
            "Tornado",
            "Transpose",
            "Bit Reversal",
            "Neighbor",
        ]
        assert names[6] == "Barnes"
        assert len(matrix.synthetic_names()) == 6
        assert len(matrix.splash_names()) == 11

    def test_requests_for_scales_by_workload_kind(self):
        matrix = build_matrix(Scenario())
        synthetic = matrix.workloads()[0]
        splash = matrix.workloads()[8]  # FFT
        assert matrix.requests_for(synthetic) == matrix.scale.synthetic_requests
        assert (
            matrix.scale.splash_min_requests
            <= matrix.requests_for(splash)
            <= matrix.scale.splash_max_requests
        )

    def test_subset_matrix(self):
        matrix = build_matrix(_explicit(*SYNTHETIC_WORKLOADS))
        assert len(matrix.workloads()) == 6
        assert matrix.splash_names() == []

    def test_explicit_workloads_split_by_kind(self):
        matrix = build_matrix(_explicit("Uniform", "FFT"))
        assert matrix.workload_names() == ["Uniform", "FFT"]
        assert matrix.synthetic_names() == ["Uniform"]
        assert matrix.splash_names() == ["FFT"]
        assert matrix.run_count() == 10


class TestEvaluationRunner:
    """``repro.api.run`` end to end on the tiny scenario: in process and on
    the pool, against the golden digests."""

    def test_run_produces_all_pairs(self):
        result = run(tiny_scenario(), jobs=1)
        results = result.results
        assert len(results) == 12  # 2 configurations x 6 synthetic workloads
        assert sum(r.num_requests for r in results) == 12 * 800
        assert result.report.wall_clock_seconds > 0
        assert digests(results) == TINY_MATRIX
        pooled = run(tiny_scenario(), jobs=2).results
        assert pooled == results

    def test_run_workload_by_name(self):
        results = run(_uniform_only(tiny_scenario()), jobs=1).results
        assert [r.configuration for r in results] == ["LMesh/ECM", "XBar/OCM"]
        assert digests(results) == {
            key: TINY_MATRIX[key] for key in ("LMesh/ECM/Uniform", "XBar/OCM/Uniform")
        }

    def test_progress_callback(self):
        messages = []
        run(_uniform_only(tiny_scenario()), jobs=1, progress=messages.append)
        assert len(messages) == 2
        assert "Uniform" in messages[0]

    def test_figures_extractable_from_runner_results(self):
        result = run(tiny_scenario(), jobs=1)
        results = result.results
        speedups = figure8_speedup(
            results, workload_order=result.report.matrix.workload_names()
        )
        assert set(speedups) == {
            "Uniform",
            "Hot Spot",
            "Tornado",
            "Transpose",
            "Bit Reversal",
            "Neighbor",
        }
        for by_config in speedups.values():
            assert by_config["LMesh/ECM"] == pytest.approx(1.0)
            assert by_config["XBar/OCM"] > 0
        bandwidths = figure9_bandwidth(results)
        latencies = figure10_latency(results)
        powers = figure11_power(results)
        for table in (bandwidths, latencies, powers):
            assert set(table) == set(speedups)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_table1_matches_paper(self):
        rows = dict(table1_resource_configuration())
        assert rows["Number of clusters"] == "64"
        assert rows["Issue width"] == "2"

    def test_table2_totals(self):
        rows = table2_optical_inventory()
        total = rows[-1]
        assert total[0] == "Total"
        assert total[1] == 388

    def test_table3_lists_all_17_workloads(self):
        assert len(table3_benchmarks()) == 17

    def test_table4_columns(self):
        rows = table4_memory_interconnects(CORONA_DEFAULT)
        by_key = {row[0]: (row[1], row[2]) for row in rows}
        assert by_key["Memory controllers"] == (64, 64)
        assert float(by_key["Memory bandwidth (TB/s)"][0]) == pytest.approx(10.24)
        assert float(by_key["Memory bandwidth (TB/s)"][1]) == pytest.approx(0.96)

    def test_render_all_tables(self):
        report = render_all_tables()
        for title in ("Table 1", "Table 2", "Table 3", "Table 4"):
            assert title in report


class TestFigures:
    def test_render_figure_produces_bars(self):
        table = {"Uniform": {"LMesh/ECM": 1.0, "XBar/OCM": 4.0}}
        chart = render_figure(table, title="Figure 8", unit="x")
        assert "Figure 8" in chart
        assert "XBar/OCM" in chart
        assert chart.count("#") > 0

    def test_render_figure_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            render_figure({}, title="x", width=2)

    def test_speedup_summary_keys(self):
        # Build a fake result set with the right configurations.
        from tests.test_core_config_and_results import _result

        results = []
        for workload in ("Uniform", "FFT"):
            results.append(_result(workload, "LMesh/ECM", 8e-6))
            results.append(_result(workload, "HMesh/ECM", 6e-6))
            results.append(_result(workload, "HMesh/OCM", 3e-6))
            results.append(_result(workload, "XBar/OCM", 2e-6))
        summary = speedup_summary(results, ["Uniform"], ["FFT"])
        assert summary["synthetic_ocm_over_ecm"] == pytest.approx(2.0)
        assert summary["splash_xbar_over_hmesh_ocm"] == pytest.approx(1.5)
        assert summary["corona_over_baseline_synthetic"] == pytest.approx(4.0)

    def test_paper_reference_values(self):
        assert PAPER_SPEEDUP_SUMMARY["synthetic_ocm_over_ecm"] == 3.28
        assert PAPER_SPEEDUP_SUMMARY["splash_ocm_over_ecm"] == 1.80
