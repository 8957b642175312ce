"""Optical loss and power budgets.

The feasibility of a DWDM network rests on a link budget: the laser must emit
enough power per wavelength that, after every splitter, waveguide centimetre,
ring pass and coupler on the worst-case path, the detector still receives its
sensitivity threshold.  :class:`LossBudget` composes named loss elements;
:class:`PowerBudget` turns a loss budget plus detector sensitivity into the
required laser power and checks margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class LossElement:
    """A single named contribution to a path's insertion loss."""

    name: str
    loss_db: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.loss_db < 0:
            raise ValueError(f"loss must be non-negative, got {self.loss_db}")
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")

    @property
    def total_db(self) -> float:
        return self.loss_db * self.count


@dataclass
class LossBudget:
    """An ordered list of loss elements along one optical path."""

    name: str
    elements: List[LossElement] = field(default_factory=list)

    def add(self, name: str, loss_db: float, count: int = 1) -> "LossBudget":
        """Append an element; returns self for chaining."""
        self.elements.append(LossElement(name=name, loss_db=loss_db, count=count))
        return self

    @property
    def total_db(self) -> float:
        return sum(element.total_db for element in self.elements)

    def report(self) -> str:
        lines = [f"Loss budget: {self.name}"]
        for element in self.elements:
            lines.append(
                f"  {element.name:<32} {element.loss_db:6.2f} dB x {element.count:<5d}"
                f" = {element.total_db:7.2f} dB"
            )
        lines.append(f"  {'TOTAL':<32} {'':>18}{self.total_db:7.2f} dB")
        return "\n".join(lines)


@dataclass
class PowerBudget:
    """Laser power requirement derived from a loss budget.

    Parameters
    ----------
    loss_budget:
        Worst-case path loss.
    detector_sensitivity_dbm:
        Minimum received optical power per wavelength, in dBm.
    laser_power_per_wavelength_dbm:
        Emitted optical power per comb line, in dBm.
    margin_db:
        Extra margin demanded on top of the sensitivity threshold.
    """

    loss_budget: LossBudget
    detector_sensitivity_dbm: float = -20.0
    laser_power_per_wavelength_dbm: float = 0.0
    margin_db: float = 3.0

    @property
    def received_power_dbm(self) -> float:
        return self.laser_power_per_wavelength_dbm - self.loss_budget.total_db

    @property
    def margin_achieved_db(self) -> float:
        """Margin above detector sensitivity on the worst-case path."""
        return self.received_power_dbm - self.detector_sensitivity_dbm

    @property
    def closes(self) -> bool:
        """Whether the link budget closes with the demanded margin."""
        return self.margin_achieved_db >= self.margin_db

    @property
    def required_laser_power_dbm(self) -> float:
        """Per-wavelength laser power needed to just meet sensitivity + margin."""
        return (
            self.detector_sensitivity_dbm + self.margin_db + self.loss_budget.total_db
        )

    @staticmethod
    def dbm_to_watts(dbm: float) -> float:
        return 1e-3 * 10.0 ** (dbm / 10.0)

    def required_laser_power_w(self) -> float:
        return self.dbm_to_watts(self.required_laser_power_dbm)

    def report(self) -> str:
        status = "CLOSES" if self.closes else "DOES NOT CLOSE"
        return "\n".join(
            [
                self.loss_budget.report(),
                f"  laser power / wavelength : {self.laser_power_per_wavelength_dbm:7.2f} dBm",
                f"  received power           : {self.received_power_dbm:7.2f} dBm",
                f"  detector sensitivity     : {self.detector_sensitivity_dbm:7.2f} dBm",
                f"  margin achieved          : {self.margin_achieved_db:7.2f} dB ({status})",
            ]
        )


def crossbar_worst_case_budget(
    serpentine_length_cm: float = 16.0,
    waveguide_loss_db_per_cm: float = 0.3,
    ring_passes: int = 64 * 64,
    ring_through_loss_db: float = 0.0001,
    splitter_loss_db: float = 3.5,
    coupler_loss_db: float = 1.0,
    modulator_insertion_db: float = 0.5,
    detector_drop_db: float = 0.5,
) -> LossBudget:
    """The worst-case crossbar path loss budget.

    Note: this budget uses optimistic 2017-era projections for waveguide loss
    (0.3 dB/cm rather than today's 2-3 dB/cm) and very low per-ring through
    loss, following the assumption in the paper that device quality improves
    by the 16 nm node.  The knobs are exposed so sensitivity studies can
    explore how much device improvement the architecture actually needs.
    """
    budget = LossBudget(name="crossbar worst-case path")
    budget.add("star coupler", coupler_loss_db)
    budget.add("home splitter", splitter_loss_db)
    budget.add(
        "waveguide propagation",
        waveguide_loss_db_per_cm,
        count=int(round(serpentine_length_cm)),
    )
    budget.add("off-resonance ring passes", ring_through_loss_db, count=ring_passes)
    budget.add("modulator insertion", modulator_insertion_db)
    budget.add("detector drop", detector_drop_db)
    return budget
