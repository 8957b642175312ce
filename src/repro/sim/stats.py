"""Statistics collection for the Corona experiments.

Every experiment in the paper boils down to a handful of aggregate statistics:
execution time, achieved memory bandwidth, average request latency and network
energy.  The classes here are the small set of accumulators used to compute
them: plain counters, running mean/stddev (Welford), fixed-bin histograms and
time-weighted averages, plus a :class:`StatGroup` container that renders a
readable report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class RunningStats:
    """Streaming mean / variance / min / max using Welford's algorithm."""

    __slots__ = ("name", "count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count: int = 0
        self._mean: float = 0.0
        self._m2: float = 0.0
        self.minimum: float = math.inf
        self.maximum: float = -math.inf
        self.total: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """:meth:`add` each value, with the accumulators held in locals
        (same operations in the same order, so the same result)."""
        count = self.count
        total = self.total
        mean = self._mean
        m2 = self._m2
        minimum = self.minimum
        maximum = self.maximum
        for value in values:
            count += 1
            total += value
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.count = count
        self.total = total
        self._mean = mean
        self._m2 = m2
        self.minimum = minimum
        self.maximum = maximum

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / combined
        )
        self._mean = self._mean + delta * other.count / combined
        self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats({self.name!r}, n={self.count}, mean={self.mean:.4g}, "
            f"std={self.stddev:.4g})"
        )


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

    def bin_edges(self) -> List[Tuple[float, float]]:
        width = self._width
        return [
            (self.lower + i * width, self.lower + (i + 1) * width)
            for i in range(self.bins)
        ]

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


class TimeWeightedAverage:
    """Average of a piecewise-constant signal, weighted by how long it held."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._last_time: Optional[float] = None
        self._last_value: float = 0.0
        self._weighted_sum: float = 0.0
        self._elapsed: float = 0.0

    def update(self, now: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        if self._last_time is not None:
            if now < self._last_time:
                raise ValueError("time must be monotonically non-decreasing")
            span = now - self._last_time
            self._weighted_sum += self._last_value * span
            self._elapsed += span
        self._last_time = now
        self._last_value = value

    def finalize(self, now: float) -> None:
        """Account for the interval up to ``now`` without changing the value."""
        self.update(now, self._last_value)

    @property
    def average(self) -> float:
        if self._elapsed <= 0:
            return self._last_value
        return self._weighted_sum / self._elapsed


@dataclass
class StatGroup:
    """A named collection of statistics with a readable report."""

    name: str
    counters: Dict[str, Counter] = field(default_factory=dict)
    distributions: Dict[str, RunningStats] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def distribution(self, name: str) -> RunningStats:
        if name not in self.distributions:
            self.distributions[name] = RunningStats(name)
        return self.distributions[name]

    def histogram(
        self, name: str, lower: float, upper: float, bins: int = 32
    ) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, lower, upper, bins)
        return self.histograms[name]

    def report(self) -> str:
        lines = [f"== {self.name} =="]
        for name in sorted(self.counters):
            lines.append(f"  {name}: {self.counters[name].value:g}")
        for name in sorted(self.distributions):
            dist = self.distributions[name]
            lines.append(
                f"  {name}: n={dist.count} mean={dist.mean:.4g} "
                f"std={dist.stddev:.4g} min={dist.minimum:.4g} max={dist.maximum:.4g}"
            )
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            lines.append(
                f"  {name}: samples={hist.samples} "
                f"p50={hist.percentile(0.5):.4g} p99={hist.percentile(0.99):.4g}"
            )
        return "\n".join(lines)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean used for the paper's aggregate speedup numbers."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    log_sum = sum(math.log(v) for v in values)
    return math.exp(log_sum / len(values))
