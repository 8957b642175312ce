"""Statistics collection for the Corona experiments.

Every experiment in the paper boils down to a handful of aggregate statistics:
execution time, achieved memory bandwidth, average request latency and network
energy.  The accumulators here compute the replay's share of them: a running
mean (Welford's update) for the average latencies, a fixed-bin histogram for
the p99 latency, and the geometric mean behind the paper's aggregate
speedups.
"""

from __future__ import annotations

import math
from typing import Iterable, List


class RunningStats:
    """Streaming mean, by Welford's update."""

    __slots__ = ("name", "count", "_mean")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count: int = 0
        self._mean: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count

    def extend(self, values: Iterable[float]) -> None:
        """:meth:`add` each value, with the accumulators held in locals
        (same operations in the same order, so the same result)."""
        count = self.count
        mean = self._mean
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
        self.count = count
        self._mean = mean

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0


class Histogram:
    """Fixed-width-bin histogram with overflow/underflow tracking.

    With ``auto_expand=True`` the histogram never truncates at ``upper``:
    when a sample lands at or beyond the current range, the range is doubled
    (merging adjacent bins, so the bin count stays fixed) until the sample
    fits.  Percentiles computed afterwards therefore cover the full observed
    range instead of silently clamping at the initial upper bound.
    """

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        bins: int = 32,
        auto_expand: bool = False,
    ) -> None:
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        if upper <= lower:
            raise ValueError(f"upper ({upper}) must exceed lower ({lower})")
        self.name = name
        self.lower = lower
        self.upper = upper
        self.bins = bins
        self.auto_expand = auto_expand
        self.counts: List[int] = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self.samples = 0
        self._width = (upper - lower) / bins

    def _expand_to(self, value: float) -> None:
        """Double the range (re-binning by pairs) until ``value`` fits."""
        while value >= self.upper:
            merged = [0] * self.bins
            for index, count in enumerate(self.counts):
                merged[index >> 1] += count
            self.counts = merged
            self._width *= 2.0
            self.upper = self.lower + self._width * self.bins

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Bin each value in turn, with the counters and the range held in
        locals: values below ``lower`` count as underflow, values at or
        beyond ``upper`` as overflow unless the range auto-expands."""
        samples = self.samples
        underflow = self.underflow
        overflow = self.overflow
        lower = self.lower
        upper = self.upper
        width = self._width
        counts = self.counts
        last = self.bins - 1
        auto_expand = self.auto_expand
        for value in values:
            samples += 1
            if value < lower:
                underflow += 1
                continue
            if value >= upper:
                if not auto_expand:
                    overflow += 1
                    continue
                self._expand_to(value)
                upper = self.upper
                width = self._width
                counts = self.counts
            index = int((value - lower) / width)
            counts[index if index < last else last] += 1
        self.samples = samples
        self.underflow = underflow
        self.overflow = overflow

    def percentile(self, fraction: float) -> float:
        """Approximate percentile from bin midpoints (0 < fraction <= 1)."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        in_range = sum(self.counts)
        if in_range == 0:
            return self.lower
        target = fraction * in_range
        running = 0
        width = self._width
        for i, count in enumerate(self.counts):
            running += count
            if running >= target:
                return self.lower + (i + 0.5) * width
        return self.upper


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean used for the paper's aggregate speedup numbers."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    log_sum = sum(math.log(v) for v in values)
    return math.exp(log_sum / len(values))
