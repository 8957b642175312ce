"""DRAM timing model of an optically connected memory module.

Corona's OCM modules use custom DRAM dies organized so that an entire cache
line is read from (or written to) a single mat, avoiding the conventional
DIMM's habit of activating tens of thousands of bits across many devices for
a 64-byte transfer.  The model here captures the two properties the system
study depends on:

* a fixed access latency (the paper's 20 ns memory latency, Table 4);
* a per-bank/mat occupancy (cycle time) that limits how frequently the same
  bank can be accessed, so pathological traffic (Hot Spot) sees bank
  contention on top of channel contention.

An :class:`OcmModule` keeps all of its dies' banks in one flat, die-major
table of plain lists rather than one object per die and bank: a 64-cluster
system has 2,048 banks, and per-bank objects would dominate the cost of
building a system.  An access reserves its bank's row with
:func:`~repro.sim.resources.reserve_interval`, the reservation behind every
:class:`~repro.sim.resources.SerialResource`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.resources import reserve_interval


@dataclass(frozen=True)
class DramTimings:
    """Timing parameters of one DRAM mat/bank.

    Parameters
    ----------
    access_latency_s:
        Time from command arrival to data availability: the system's
        ``CoronaConfig.memory_latency_s`` (the paper's 20 ns).
    cycle_time_s:
        Minimum spacing between successive accesses to the same bank.
    """

    access_latency_s: float
    cycle_time_s: float = 20e-9

    def __post_init__(self) -> None:
        if self.access_latency_s <= 0:
            raise ValueError("access latency must be positive")
        if self.cycle_time_s <= 0:
            raise ValueError("cycle time must be positive")


@dataclass
class OcmModule:
    """A 3D-stacked optically connected memory module.

    One optical die plus several DRAM dies (Figure 6a).  Modules are daisy
    chained on the fiber loop; because light passes through without buffering
    or retiming, each additional module adds only a small propagation delay
    (:func:`daisy_chain_delay`).
    The paper's OCM DRAM die has four independent quadrants, each of which
    could itself be four independent dies; what matters to the system model
    is the number of concurrently accessible banks.

    A line maps to die ``(line // banks_per_die) % num_dram_dies`` and to bank
    ``line % banks_per_die`` of that die, so consecutive lines interleave
    across a die's banks first.  The banks live in one table, bank ``b`` of
    die ``d`` at row ``d * banks_per_die + b`` -- which is ``line %
    total_banks``.  Per row the table holds the bank's committed busy
    intervals (sorted ``starts``/``ends``) and the latest request time seen
    (the prune high-water mark).
    """

    module_id: int
    timings: DramTimings
    num_dram_dies: int = 4
    banks_per_die: int = 8

    def __post_init__(self) -> None:
        if self.num_dram_dies < 1:
            raise ValueError(
                f"module needs at least one DRAM die, got {self.num_dram_dies}"
            )
        if self.banks_per_die < 1:
            raise ValueError(f"need at least one bank, got {self.banks_per_die}")
        banks = self._banks = self.total_banks
        self._starts: List[List[float]] = [[] for _ in range(banks)]
        self._ends: List[List[float]] = [[] for _ in range(banks)]
        self._high_water: List[float] = [0.0] * banks
        self._cycle_time_s = self.timings.cycle_time_s
        self._access_latency_s = self.timings.access_latency_s

    @property
    def total_banks(self) -> int:
        return self.num_dram_dies * self.banks_per_die

    def access(self, address: int, now: float) -> float:
        """Access the line at ``address`` no earlier than ``now``; returns the
        data-ready time.

        The bank is a single server busy for its cycle time, which may exceed
        the data-available point.
        """
        bank = (address >> 6) % self._banks
        high_water = self._high_water[bank]
        if now > high_water:
            self._high_water[bank] = high_water = now
        start = reserve_interval(
            self._starts[bank], self._ends[bank], now, self._cycle_time_s, high_water
        )
        return start + self._access_latency_s


#: One-way delay of light passing through one OCM module of the chain.
PASS_THROUGH_DELAY_S = 0.1e-9


def daisy_chain_delay(module_index: int) -> float:
    """Extra one-way delay to reach module ``module_index`` in the chain.

    The first module (index 0) is adjacent to the processor stack; each
    subsequent module adds one optical pass-through of
    :data:`PASS_THROUGH_DELAY_S`.  The paper's point is that this increment
    is small (no resampling/retiming as FBDIMM needs), so access latency
    stays nearly uniform across modules.
    """
    if module_index < 0:
        raise ValueError(f"module index must be non-negative, got {module_index}")
    return module_index * PASS_THROUGH_DELAY_S
