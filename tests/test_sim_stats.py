"""Tests for statistics accumulators."""

import math

import pytest

from repro.sim.stats import Histogram, RunningStats, geometric_mean


class TestRunningStats:
    def test_mean(self):
        stats = RunningStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.count == 8

    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.mean == 0.0

    def test_extend_matches_add(self):
        """``extend`` is ``add`` per value, bit for bit, also on an
        accumulator that already holds samples."""
        values = [0.1, 3.7, -2.25, 1e-9, 4.5e3, 0.3]
        added, extended = RunningStats(), RunningStats()
        for value in values + values[::-1]:
            added.add(value)
        extended.extend(values)
        extended.extend(iter(values[::-1]))
        assert (extended.count, extended.mean) == (added.count, added.mean)


class TestHistogram:
    def test_binning(self):
        hist = Histogram("lat", lower=0.0, upper=10.0, bins=10)
        for value in [0.5, 1.5, 1.6, 9.9]:
            hist.add(value)
        assert hist.counts[0] == 1
        assert hist.counts[1] == 2
        assert hist.counts[9] == 1

    def test_overflow_underflow(self):
        hist = Histogram("lat", lower=0.0, upper=10.0, bins=5)
        hist.add(-1.0)
        hist.add(100.0)
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.samples == 2

    def test_percentile(self):
        hist = Histogram("lat", lower=0.0, upper=100.0, bins=100)
        for value in range(100):
            hist.add(value + 0.5)
        assert hist.percentile(0.5) == pytest.approx(49.5, abs=1.0)
        assert hist.percentile(0.99) == pytest.approx(98.5, abs=1.0)

    def test_percentile_empty(self):
        hist = Histogram("lat", lower=0.0, upper=10.0)
        assert hist.percentile(0.5) == 0.0

    def test_percentile_rejects_bad_fraction(self):
        hist = Histogram("lat", lower=0.0, upper=10.0)
        with pytest.raises(ValueError):
            hist.percentile(0.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", lower=1.0, upper=1.0)


class TestHistogramAutoExpand:
    def test_expands_instead_of_overflowing(self):
        hist = Histogram("lat", lower=0.0, upper=10.0, bins=10, auto_expand=True)
        hist.add(35.0)
        assert hist.overflow == 0
        assert hist.upper == 40.0
        assert hist.bins == 10
        assert sum(hist.counts) == 1

    def test_expansion_rebins_existing_samples(self):
        hist = Histogram("lat", lower=0.0, upper=10.0, bins=10, auto_expand=True)
        for value in (0.5, 1.5, 9.5):
            hist.add(value)
        hist.add(15.0)  # doubles the range to [0, 20)
        assert hist.upper == 20.0
        # Old bins 0 and 1 merge into new bin 0; old bin 9 into new bin 4.
        assert hist.counts[0] == 2
        assert hist.counts[4] == 1
        assert hist.counts[7] == 1  # the 15.0 sample
        assert sum(hist.counts) == 4

    def test_expansion_is_order_independent(self):
        forward = Histogram("a", lower=0.0, upper=8.0, bins=8, auto_expand=True)
        backward = Histogram("b", lower=0.0, upper=8.0, bins=8, auto_expand=True)
        values = [0.5, 3.0, 7.5, 20.0, 60.0, 11.0]
        for value in values:
            forward.add(value)
        for value in reversed(values):
            backward.add(value)
        assert forward.counts == backward.counts
        assert forward.upper == backward.upper

    @pytest.mark.parametrize("auto_expand", [False, True])
    def test_extend_matches_add(self, auto_expand):
        """``extend`` over many values is ``add`` per value: same bins,
        tallies and range, through underflow, overflow or repeated
        expansion, and on a histogram that already holds samples."""
        values = [0.5, -1.0, 9.99, 10.0, 3.25, 35.0, 0.0, 160.0, 7.5, -0.1, 80.0]
        added = Histogram("a", lower=0.0, upper=10.0, bins=10, auto_expand=auto_expand)
        extended = Histogram("e", lower=0.0, upper=10.0, bins=10, auto_expand=auto_expand)
        for value in values + values[::-1]:
            added.add(value)
        extended.extend(values)
        extended.extend(iter(values[::-1]))
        for attribute in ("counts", "underflow", "overflow", "samples", "upper", "_width"):
            assert getattr(extended, attribute) == getattr(added, attribute), attribute
        assert extended.percentile(0.99) == added.percentile(0.99)

    def test_percentile_not_clamped_at_initial_upper(self):
        """Regression: slow tails must not report a truncated p99."""
        hist = Histogram(
            "latency-ns", lower=0.0, upper=2000.0, bins=200, auto_expand=True
        )
        for _ in range(99):
            hist.add(100.0)
        for _ in range(5):
            hist.add(7500.0)  # tail far beyond the initial 2000 ns bound
        p99 = hist.percentile(0.99)
        assert p99 > 2000.0
        assert p99 == pytest.approx(7500.0, rel=0.02)

    def test_default_histogram_still_clamps(self):
        hist = Histogram("lat", lower=0.0, upper=10.0, bins=5)
        hist.add(100.0)
        assert hist.overflow == 1
        assert hist.upper == 10.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 8.0]) == pytest.approx(math.sqrt(8.0))

    def test_identity(self):
        assert geometric_mean([3.0, 3.0, 3.0]) == pytest.approx(3.0)

    def test_paper_style_speedups(self):
        # Geometric mean is what the paper uses for its 3.28x claim.
        assert geometric_mean([2.0, 4.0]) == pytest.approx(2.828, rel=1e-3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
