"""Sharing-aware address generation for coherence-enabled workloads.

The Corona paper models a 256-core shared-memory CMP kept coherent by a MOESI
directory protocol (Section 3.1.2).  The replay engine's traces are L2-miss
streams; to exercise the coherence protocol the trace generator must know
which addresses are *shared* -- touched by threads of many clusters -- and
which are private.  A :class:`SharingProfile` describes that split:

* a **fraction** of misses target a global pool of shared lines instead of
  the workload's private per-thread address space;
* the pool has a fixed number of lines whose popularity follows a Zipf-like
  distribution, so a few lines are touched by most clusters (widely shared
  data: locks, reduction variables) while the tail is touched by few -- this
  is what produces a *sharer-set distribution* at the directory rather than a
  single sharer count;
* shared misses have their own write fraction (read-mostly sharing grows
  sharer sets before a write invalidates them; write-heavy sharing behaves
  like migratory data).

Shared lines live in a dedicated address region (bit :data:`SHARED_REGION_BIT`
set) so they can never alias the synthetic private addresses, and each line's
home cluster is derived from the line index so the home mapping is consistent
between the trace record and the address bits.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List

#: Address bit marking the shared region (above every private synthetic
#: address, which occupies bits [6, 32) -- see
#: ``SyntheticWorkload._emit_records``).
SHARED_REGION_BIT = 1 << 40

#: Cache-line size used for shared-line addresses (Table 1).
LINE_BYTES = 64


@dataclass(frozen=True)
class SharingProfile:
    """How a workload's misses are split between private and shared lines.

    Parameters
    ----------
    fraction:
        Fraction of misses that target the shared pool (0 disables sharing
        and leaves trace generation bit-identical to the non-sharing path).
    num_lines:
        Size of the shared-line pool.
    zipf_s:
        Popularity skew of the pool: line ``i`` is drawn with weight
        ``1 / (i + 1) ** zipf_s``.  ``0`` gives a uniform pool (small sharer
        sets); larger values concentrate accesses on a few widely shared
        lines (large sharer sets, the broadcast bus's target case).
    write_fraction:
        Fraction of shared misses that are writes (GetM).  Low values let
        sharer sets grow before an invalidation; high values approximate
        migratory data.
    """

    fraction: float = 0.0
    num_lines: int = 512
    zipf_s: float = 0.8
    write_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(
                f"sharing fraction must be in [0, 1], got {self.fraction}"
            )
        if self.num_lines < 1:
            raise ValueError(
                f"shared pool needs at least one line, got {self.num_lines}"
            )
        if self.zipf_s < 0:
            raise ValueError(f"zipf skew must be non-negative, got {self.zipf_s}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"shared write fraction must be in [0, 1], got "
                f"{self.write_fraction}"
            )

    @property
    def enabled(self) -> bool:
        return self.fraction > 0.0

    @classmethod
    def from_dict(cls, data) -> "SharingProfile":
        """Build a profile from a mapping of field names.

        Unknown keys raise a :class:`ValueError` naming the key -- scenario
        files route their ``sharing`` blocks through here so a typo fails
        with the offending field instead of a bare ``TypeError``.
        """
        known = ("fraction", "num_lines", "zipf_s", "write_fraction")
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(
                f"unknown SharingProfile field {sorted(unknown)[0]!r}; "
                f"known: {list(known)}"
            )
        return cls(**dict(data))

    def cumulative_weights(self) -> List[float]:
        """Cumulative (unnormalized) Zipf weights over the pool, for bisect."""
        total = 0.0
        cumulative: List[float] = []
        for index in range(self.num_lines):
            total += 1.0 / (index + 1) ** self.zipf_s
            cumulative.append(total)
        return cumulative

    def draw_line(self, rng: random.Random, cumulative: List[float]) -> int:
        """Draw a shared line index according to the popularity distribution."""
        return bisect_left(cumulative, rng.random() * cumulative[-1])


def default_sharing_profile() -> SharingProfile:
    """A generic moderately-shared profile (``sharing: "default"`` in
    scenario files for workloads without a calibrated per-benchmark profile;
    SPLASH-2 models carry their own, see
    :data:`repro.trace.splash2.SPLASH2_SHARING_PROFILES`)."""
    return SharingProfile(fraction=0.3)


def resolve_sharing(sharing, default_factory) -> "SharingProfile | None":
    """Normalize a workload's ``sharing`` parameter to a profile (or None).

    Accepts a :class:`SharingProfile`, ``None``, the string ``"default"``
    (resolved via ``default_factory``) or a mapping of profile fields --
    the forms a scenario file can carry -- and rejects anything else with a
    :class:`ValueError`, so a misplaced value fails at workload construction
    (where scenario validation sees it) rather than mid-generation.
    """
    if sharing is None or isinstance(sharing, SharingProfile):
        return sharing
    if isinstance(sharing, str):
        if sharing != "default":
            raise ValueError(
                f"sharing must be a SharingProfile, a mapping of its fields, "
                f"None or 'default', got {sharing!r}"
            )
        return default_factory()
    try:
        items = dict(sharing)
    except (TypeError, ValueError):
        raise ValueError(
            f"sharing must be a SharingProfile, a mapping of its fields, "
            f"None or 'default', got {type(sharing).__name__}"
        ) from None
    return SharingProfile.from_dict(items)


def home_for_line(line: int, num_clusters: int) -> int:
    """Home cluster of shared line ``line`` (round-robin across clusters)."""
    return line % num_clusters


def shared_line_address(line: int, num_clusters: int) -> int:
    """Physical address of shared line ``line``.

    The home cluster is encoded in the same bit positions the synthetic
    private addresses use (bits 26+), with :data:`SHARED_REGION_BIT` on top so
    shared and private lines can never alias.
    """
    home = home_for_line(line, num_clusters)
    return SHARED_REGION_BIT | (home << 26) | (line * LINE_BYTES)
