"""Open-loop arrival processes for trace generation.

Every workload in the reproduction was historically *closed-loop*: each
thread draws a gamma-distributed think gap after the previous miss, so a
slow system slows its own offered load and no configuration can ever be
pushed past saturation.  An :class:`ArrivalSpec` turns a workload
*open-loop*: inter-arrival gaps are drawn from a rate-parameterized
process (Poisson, or a two-state Markov-modulated Poisson process for
bursty traffic) and written into the packed gap column at generation
time, so the arrival schedule is fixed regardless of how the system keeps
up.  The replay engine then timestamps each request at its *arrival*
instant and reports sojourn time (queueing + service), which is what
diverges honestly past the knee.

The spec is a frozen scenario node (``workloads[*].arrival``), read and
written by :mod:`repro.spec` like every other node: invalid values raise
:class:`~repro.spec.ScenarioError` naming the offending field
(``workloads[0].arrival.rate_rps`` in a scenario file).

Determinism: all arrival draws come from a dedicated generator seeded by
``(arrival.seed, trace seed)`` -- independent of the workload's own rng,
so the address/destination/sharing stream of an open-loop trace matches
replays under any worker count, and changing only the offered rate never
perturbs the non-gap draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.spec import ScenarioError, check_fields, read, write

#: The packed gap column is denominated in 5 GHz core-clock cycles
#: (``CoronaConfig.clock_hz``); arrival rates are requests/second, so this
#: constant converts between the two without importing the core config.
GAP_CLOCK_HZ = 5.0e9

#: Recognized arrival processes.  ``closed`` keeps the legacy gamma think
#: gaps (bit-identical to an absent spec); the other two are open-loop.
ARRIVAL_PROCESSES = ("closed", "poisson", "mmpp")

#: Mean arrivals per burst episode for the MMPP process: the expected
#: burst-state sojourn is this many burst-rate inter-arrival times, and
#: the idle sojourn follows from ``burst_fraction``.
MMPP_ARRIVALS_PER_BURST = 32.0


@dataclass(frozen=True)
class ArrivalSpec:
    """Open-loop arrival process parameters for one workload.

    ``rate_rps`` is the *aggregate* offered load across all threads in
    requests/second; each thread runs an independent stream at
    ``rate_rps / num_threads``.  For ``mmpp`` the process alternates
    between an idle state arriving at ``rate_rps`` and a burst state at
    ``burst_rate_rps``, spending ``burst_fraction`` of time (long-run) in
    the burst state; the time-averaged offered load is then
    ``(1 - f) * rate + f * burst_rate``.
    """

    process: str = "closed"
    rate_rps: float = 0.0
    burst_rate_rps: float = 0.0
    burst_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.process not in ARRIVAL_PROCESSES:
            raise ScenarioError(
                "process",
                f"unknown arrival process {self.process!r}; "
                f"expected one of {list(ARRIVAL_PROCESSES)}",
            )
        rate = self.rate_rps
        burst = self.burst_rate_rps
        fraction = self.burst_fraction
        if self.process in ("poisson", "mmpp") and rate <= 0.0:
            raise ScenarioError(
                "rate_rps",
                f"{self.process} arrivals need a positive rate, got {rate!r}",
            )
        if self.process == "mmpp":
            if burst <= rate:
                raise ScenarioError(
                    "burst_rate_rps",
                    f"must exceed rate_rps ({rate!r}) for a burst state, "
                    f"got {burst!r}",
                )
            if not 0.0 < fraction < 1.0:
                raise ScenarioError(
                    "burst_fraction",
                    f"must be strictly between 0 and 1, got {fraction!r}",
                )
        else:
            if self.process == "closed" and rate != 0.0:
                raise ScenarioError(
                    "rate_rps",
                    f"only meaningful for open-loop processes, got {rate!r}",
                )
            if burst != 0.0:
                raise ScenarioError(
                    "burst_rate_rps",
                    f"only meaningful for process 'mmpp', got {burst!r}",
                )
            if fraction != 0.0:
                raise ScenarioError(
                    "burst_fraction",
                    f"only meaningful for process 'mmpp', got {fraction!r}",
                )

    # -- derived -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when the spec actually changes gap generation."""
        return self.process != "closed"

    def offered_rps(self) -> float:
        """The time-averaged aggregate offered load in requests/second."""
        if self.process == "poisson":
            return self.rate_rps
        if self.process == "mmpp":
            f = self.burst_fraction
            return (1.0 - f) * self.rate_rps + f * self.burst_rate_rps
        return 0.0

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return write(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalSpec":
        return read(cls, data)


class ThreadArrivals:
    """Successive inter-arrival gaps (in core cycles) for one thread.

    One instance per thread, consumed in thread order during generation;
    all draws come from the shared arrival rng, so the gap stream is a
    pure function of ``(spec.seed, trace seed)``.
    """

    __slots__ = (
        "_rng", "_idle_gap", "_burst_gap", "_in_burst",
        "_idle_sojourn", "_burst_sojourn", "_switch_remaining",
    )

    def __init__(self, spec: ArrivalSpec, num_threads: int, rng: random.Random) -> None:
        per_thread = spec.rate_rps / num_threads
        self._rng = rng
        self._idle_gap = GAP_CLOCK_HZ / per_thread
        if spec.process == "mmpp":
            per_thread_burst = spec.burst_rate_rps / num_threads
            self._burst_gap = GAP_CLOCK_HZ / per_thread_burst
            self._burst_sojourn = MMPP_ARRIVALS_PER_BURST * self._burst_gap
            self._idle_sojourn = (
                self._burst_sojourn
                * (1.0 - spec.burst_fraction) / spec.burst_fraction
            )
            self._in_burst = rng.random() < spec.burst_fraction
            self._switch_remaining = rng.expovariate(
                1.0 / (self._burst_sojourn if self._in_burst else self._idle_sojourn)
            )
        else:
            self._burst_gap = 0.0
            self._burst_sojourn = 0.0
            self._idle_sojourn = 0.0
            self._in_burst = False
            self._switch_remaining = float("inf")

    def next_gap(self) -> float:
        """The next inter-arrival gap in core cycles."""
        rng = self._rng
        if self._switch_remaining == float("inf"):  # plain Poisson
            return rng.expovariate(1.0 / self._idle_gap)
        # MMPP: draw within the current state; when the candidate crosses
        # the state switch, consume the remaining sojourn, flip state and
        # redraw (the exponential's memorylessness makes this exact).
        elapsed = 0.0
        while True:
            mean = self._burst_gap if self._in_burst else self._idle_gap
            candidate = rng.expovariate(1.0 / mean)
            if candidate <= self._switch_remaining:
                self._switch_remaining -= candidate
                return elapsed + candidate
            elapsed += self._switch_remaining
            self._in_burst = not self._in_burst
            self._switch_remaining = rng.expovariate(
                1.0 / (self._burst_sojourn if self._in_burst else self._idle_sojourn)
            )


def arrival_streams(
    spec: Optional[ArrivalSpec], num_threads: int, seed: int
) -> Optional[Iterator[ThreadArrivals]]:
    """Per-thread gap streams for an enabled spec, else ``None``.

    Generators call this once per trace and pull one :class:`ThreadArrivals`
    per thread *in thread order*; the shared rng keeps the whole schedule
    deterministic while giving every thread an independent stream.
    """
    if spec is None or not spec.enabled:
        return None
    rng = random.Random(f"corona-arrival:{spec.seed}:{seed}")

    def streams() -> Iterator[ThreadArrivals]:
        while True:
            yield ThreadArrivals(spec, num_threads, rng)

    return streams()
