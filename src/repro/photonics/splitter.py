"""Broadband splitters and the broadcast bus's tap chain.

A broadband splitter diverts a fixed fraction of *all* wavelengths from one
waveguide onto another.  Corona uses splitters to tap the power waveguide at
each crossbar channel's home cluster (the ``home splitter`` of the crossbar
link budget) and to let every cluster listen to the broadcast bus on its
second pass (:func:`splitter_chain_losses`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.photonics.constants import fraction_to_db


@dataclass
class BroadbandSplitter:
    """A two-output power splitter.

    ``tap_fraction`` of the incoming power exits on the tap port; the rest
    continues on the through port (minus a small excess loss).
    """

    name: str
    tap_fraction: float = 0.5
    excess_loss_db: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.tap_fraction < 1.0:
            raise ValueError(
                f"tap fraction must be in (0, 1), got {self.tap_fraction}"
            )
        if self.excess_loss_db < 0:
            raise ValueError(
                f"excess loss must be non-negative, got {self.excess_loss_db}"
            )

    @property
    def tap_loss_db(self) -> float:
        """Loss seen by light taking the tap port."""
        return fraction_to_db(self.tap_fraction) + self.excess_loss_db

    @property
    def through_loss_db(self) -> float:
        """Loss seen by light continuing on the main waveguide."""
        return fraction_to_db(1.0 - self.tap_fraction) + self.excess_loss_db


def splitter_chain_losses(
    num_taps: int, tap_fraction: float = None, excess_loss_db: float = 0.1
) -> List[float]:
    """Loss (dB) seen at each tap of a chain of broadband splitters.

    Used for the broadcast bus: the bus passes every cluster, and each cluster
    taps a fraction of the remaining light.  If ``tap_fraction`` is None, the
    fraction is chosen as ``1/(remaining taps)`` at each stage so every
    listener receives approximately equal power.
    """
    if num_taps < 1:
        raise ValueError(f"need at least one tap, got {num_taps}")
    losses: List[float] = []
    cumulative_through_db = 0.0
    for i in range(num_taps):
        remaining = num_taps - i
        fraction = tap_fraction if tap_fraction is not None else 1.0 / remaining
        if remaining == 1 and tap_fraction is None:
            # Last listener takes everything that is left.
            losses.append(cumulative_through_db + excess_loss_db)
            break
        splitter = BroadbandSplitter(
            name=f"tap{i}", tap_fraction=min(max(fraction, 1e-6), 1 - 1e-6),
            excess_loss_db=excess_loss_db,
        )
        losses.append(cumulative_through_db + splitter.tap_loss_db)
        cumulative_through_db += splitter.through_loss_db
    return losses
