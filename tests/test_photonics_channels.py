"""Tests for the loss/power budgets and the Table 2 inventory."""

import pytest

from repro.core.config import CORONA_DEFAULT
from repro.photonics.inventory import corona_inventory
from repro.photonics.power_budget import (
    LossBudget,
    LossElement,
    PowerBudget,
    crossbar_worst_case_budget,
)


class TestLossBudget:
    def test_total_is_sum_of_elements(self):
        budget = LossBudget("path")
        budget.add("a", 1.0).add("b", 0.5, count=4)
        assert budget.total_db == pytest.approx(3.0)

    def test_element_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            LossElement("x", loss_db=-1.0)

    def test_report_mentions_every_element(self):
        budget = LossBudget("path").add("coupler", 1.0).add("splitter", 3.0)
        report = budget.report()
        assert "coupler" in report and "splitter" in report and "TOTAL" in report


class TestPowerBudget:
    def test_budget_closes_with_enough_laser_power(self):
        budget = PowerBudget(
            loss_budget=LossBudget("p").add("path", 10.0),
            detector_sensitivity_dbm=-20.0,
            laser_power_per_wavelength_dbm=0.0,
            margin_db=3.0,
        )
        assert budget.closes
        assert budget.margin_achieved_db == pytest.approx(10.0)

    def test_budget_fails_with_too_much_loss(self):
        budget = PowerBudget(
            loss_budget=LossBudget("p").add("path", 25.0),
            detector_sensitivity_dbm=-20.0,
            laser_power_per_wavelength_dbm=0.0,
        )
        assert not budget.closes

    def test_required_laser_power(self):
        budget = PowerBudget(
            loss_budget=LossBudget("p").add("path", 10.0),
            detector_sensitivity_dbm=-20.0,
            margin_db=3.0,
        )
        assert budget.required_laser_power_dbm == pytest.approx(-7.0)

    def test_dbm_to_watts(self):
        assert PowerBudget.dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert PowerBudget.dbm_to_watts(10.0) == pytest.approx(10e-3)
        assert PowerBudget.dbm_to_watts(-30.0) == pytest.approx(1e-6)

    def test_crossbar_worst_case_budget_closes_with_projected_devices(self):
        budget = PowerBudget(
            loss_budget=crossbar_worst_case_budget(CORONA_DEFAULT),
            detector_sensitivity_dbm=-20.0,
            laser_power_per_wavelength_dbm=0.0,
        )
        assert budget.closes

    def test_report_states_closure(self):
        budget = PowerBudget(loss_budget=LossBudget("p").add("x", 1.0))
        assert "CLOSES" in budget.report()


class TestInventory:
    def test_table2_totals(self):
        inventory = corona_inventory(CORONA_DEFAULT)
        assert inventory.total_waveguides == 388
        assert inventory.total_ring_resonators == pytest.approx(1_081_408)

    def test_table2_crossbar_row(self):
        by_name = corona_inventory(CORONA_DEFAULT).by_name()
        assert by_name["Crossbar"].waveguides == 256
        assert by_name["Crossbar"].ring_resonators == 1024 * 1024

    def test_table2_memory_row(self):
        by_name = corona_inventory(CORONA_DEFAULT).by_name()
        assert by_name["Memory"].waveguides == 128
        assert by_name["Memory"].ring_resonators == 16 * 1024

    def test_table2_broadcast_and_arbitration_rows(self):
        by_name = corona_inventory(CORONA_DEFAULT).by_name()
        assert by_name["Broadcast"].ring_resonators == 8 * 1024
        assert by_name["Arbitration"].ring_resonators == 8 * 1024
        assert by_name["Arbitration"].waveguides == 2

    def test_table2_clock_row(self):
        by_name = corona_inventory(CORONA_DEFAULT).by_name()
        assert by_name["Clock"].waveguides == 1
        assert by_name["Clock"].ring_resonators == 64

    def test_inventory_scales_with_cluster_count(self):
        small = corona_inventory(
            CORONA_DEFAULT.with_overrides({"num_clusters": 16})
        )
        assert small.by_name()["Crossbar"].ring_resonators == 16 * 16 * 256

    def test_as_rows_ends_with_total(self):
        rows = corona_inventory(CORONA_DEFAULT).as_rows()
        assert rows[-1][0] == "Total"

    def test_report_is_renderable(self):
        report = corona_inventory(CORONA_DEFAULT).report()
        assert "Crossbar" in report and "Total" in report

    def test_rejects_zero_clusters(self):
        """The inventory's configuration refuses fewer than two clusters."""
        with pytest.raises(ValueError, match="at least two clusters"):
            corona_inventory(CORONA_DEFAULT.with_overrides({"num_clusters": 0}))
