"""The frozen, seeded fault specification.

A :class:`FaultSpec` describes which hardware faults a run injects and how
severe they are, as a JSON-round-tripping node of the Scenario tree
(``"faults": {...}`` in a scenario file, sweepable via ``faults.<field>``
axis paths).  All rates default to zero: a default spec is *inactive* and a
``faults: null`` scenario builds byte-identical systems to one that never
mentions faults at all.  :mod:`repro.spec` reads and writes it like every
other node: a bad or unknown field raises
:class:`~repro.spec.ScenarioError` naming it (``faults.token_loss_rate``
in a scenario file).

The four fault models map to the failure modes of the paper's hardware:

``ring_detuning_fraction``
    Probability that any one DWDM wavelength of an optical channel is
    thermally detuned and carries no data, shrinking that channel's usable
    phit width (a crossbar channel is ``crossbar_channel_width_bits``
    wavelengths wide: 256 in the paper's design, more or fewer under
    ``system.overrides``).
``token_loss_rate`` / ``token_regeneration_cycles``
    Probability that a channel's arbitration token is lost when re-injected
    after a grant; the home cluster regenerates it after the configured
    timeout, so the next writer waits instead of deadlocking.
``dead_link_fraction`` / ``dead_link_bandwidth_scale``
    Probability that a mesh link (or a crossbar channel's waveguide bundle)
    is partially dead; survivors run at the configured bandwidth fraction --
    degraded lanes, never a severed route.
``dram_timeout_rate`` / ``dram_retry_latency_ns``
    Probability that one DRAM access times out transiently and is retried
    after the configured extra latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.spec import ScenarioError, check_fields, read, write


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection parameters (all inactive by default)."""

    #: Seed of every fault decision; identical seeds give identical fault
    #: schedules regardless of worker count.
    seed: int = 0
    #: Per-wavelength probability of thermal detuning on optical channels.
    ring_detuning_fraction: float = 0.0
    #: Per-grant probability that the re-injected arbitration token is lost.
    token_loss_rate: float = 0.0
    #: Clocks until the home cluster regenerates a lost token.
    token_regeneration_cycles: float = 64.0
    #: Per-link (per-bundle) probability of partial failure.
    dead_link_fraction: float = 0.0
    #: Bandwidth fraction a degraded link retains (must stay positive).
    dead_link_bandwidth_scale: float = 0.5
    #: Per-access probability of a transient DRAM timeout.
    dram_timeout_rate: float = 0.0
    #: Extra latency of one DRAM retry, in nanoseconds.
    dram_retry_latency_ns: float = 200.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.seed < 0:
            raise ScenarioError("seed", f"must be >= 0, got {self.seed}")
        for name in (
            "ring_detuning_fraction",
            "token_loss_rate",
            "dead_link_fraction",
            "dram_timeout_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ScenarioError(
                    name, f"must be a probability in [0, 1], got {value!r}"
                )
        if self.token_regeneration_cycles < 0:
            raise ScenarioError(
                "token_regeneration_cycles",
                f"must be >= 0, got {self.token_regeneration_cycles!r}",
            )
        if not 0.0 < self.dead_link_bandwidth_scale <= 1.0:
            raise ScenarioError(
                "dead_link_bandwidth_scale",
                f"must be in (0, 1] so degraded links keep some bandwidth "
                f"(a zero-bandwidth link would deadlock), got "
                f"{self.dead_link_bandwidth_scale!r}",
            )
        if self.dram_retry_latency_ns < 0:
            raise ScenarioError(
                "dram_retry_latency_ns",
                f"must be >= 0, got {self.dram_retry_latency_ns!r}",
            )

    @property
    def any_active(self) -> bool:
        """Whether this spec injects anything at all."""
        return (
            self.ring_detuning_fraction > 0.0
            or self.token_loss_rate > 0.0
            or self.dead_link_fraction > 0.0
            or self.dram_timeout_rate > 0.0
        )

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """All fields as a JSON-clean mapping (exact round-trip)."""
        return write(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        """Parse a spec mapping, raising :class:`ScenarioError` naming any
        bad or unknown field."""
        return read(cls, data)
