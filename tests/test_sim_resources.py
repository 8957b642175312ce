"""Tests for resource-occupancy primitives."""

import pytest

from repro.sim.resources import BoundedQueue, SerialResource, TokenPool


class TestSerialResource:
    def test_immediate_grant_when_idle(self):
        resource = SerialResource("link")
        assert resource.reserve(0.0, 1.0) == pytest.approx(1.0)

    def test_back_to_back_reservations_queue(self):
        resource = SerialResource("link")
        first = resource.reserve(0.0, 1.0)
        second = resource.reserve(0.0, 1.0)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_reservation_after_idle_gap_starts_at_request_time(self):
        resource = SerialResource("link")
        resource.reserve(0.0, 1.0)
        end = resource.reserve(5.0, 1.0)
        assert end == pytest.approx(6.0)

    def test_backfill_of_earlier_gap(self):
        # A reservation far in the future must not block an earlier request
        # for an idle period (the out-of-order case that arises when memory
        # data-returns are booked ahead of later commands).
        resource = SerialResource("channel")
        resource.reserve(100.0, 1.0)
        end = resource.reserve(0.0, 1.0)
        assert end == pytest.approx(1.0)

    def test_backfill_respects_existing_reservations(self):
        resource = SerialResource("channel")
        resource.reserve(2.0, 2.0)  # busy [2, 4)
        end = resource.reserve(1.0, 2.0)  # does not fit before 2.0
        assert end == pytest.approx(6.0)

    def test_small_gap_is_skipped(self):
        # Times in nanoseconds (the scale the simulator actually uses), so the
        # pruning horizon never discards still-relevant intervals.
        ns = 1e-9
        resource = SerialResource("channel")
        resource.reserve(0.0, 1.0 * ns)  # [0, 1) ns
        resource.reserve(1.5 * ns, 1.0 * ns)  # [1.5, 2.5) ns
        end = resource.reserve(0.0, 1.0 * ns)  # 0.5 ns gap too small
        assert end == pytest.approx(3.5 * ns)

    def test_busy_time_accumulates(self):
        resource = SerialResource("link")
        resource.reserve(0.0, 1.5)
        resource.reserve(0.0, 0.5)
        assert resource.busy_time == pytest.approx(2.0)

    def test_utilization(self):
        resource = SerialResource("link")
        resource.reserve(0.0, 2.0)
        assert resource.utilization(4.0) == pytest.approx(0.5)

    def test_utilization_zero_elapsed(self):
        assert SerialResource("x").utilization(0.0) == 0.0

    def test_zero_duration_reservation(self):
        resource = SerialResource("link")
        assert resource.reserve(1.0, 0.0) == pytest.approx(1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            SerialResource("link").reserve(0.0, -1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            SerialResource("link").reserve(-1.0, 1.0)

    def test_zero_length_reservation_inside_the_tail_interval(self):
        # A zero-length reservation fits "before" the busy interval within
        # the epsilon guard; committing it must leave the interval where it
        # is, not move its start to the request time.
        resource = SerialResource("link")
        resource.reserve(1e-9, 1e-9)
        resource.reserve(1e-9 + 5e-16, 0.0)
        assert resource._starts == [1e-9]
        assert resource._ends == [2e-9]

    def test_saturated_resource_throughput_matches_bandwidth(self):
        # 100 back-to-back unit reservations must finish at exactly t=100.
        resource = SerialResource("link")
        end = 0.0
        for _ in range(100):
            end = resource.reserve(0.0, 1.0)
        assert end == pytest.approx(100.0)


class TestBoundedQueue:
    def test_admission_is_immediate_when_space(self):
        queue = BoundedQueue("q", capacity=2)
        assert queue.admit(0.0, departure_time=5.0) == 0.0

    def test_admission_waits_when_full(self):
        queue = BoundedQueue("q", capacity=2)
        queue.admit(0.0, departure_time=5.0)
        queue.admit(0.0, departure_time=3.0)
        assert queue.admit(1.0, departure_time=10.0) == pytest.approx(3.0)

    def test_occupancy_decreases_after_departures(self):
        queue = BoundedQueue("q", capacity=4)
        queue.admit(0.0, departure_time=2.0)
        queue.admit(0.0, departure_time=4.0)
        assert queue.occupancy(1.0) == 2
        assert queue.occupancy(3.0) == 1
        assert queue.occupancy(5.0) == 0

    def test_admit_rejects_departure_before_admission(self):
        queue = BoundedQueue("q", capacity=1)
        queue.admit(0.0, departure_time=10.0)
        with pytest.raises(ValueError):
            queue.admit(0.0, departure_time=5.0)

    def test_max_occupancy_tracked(self):
        queue = BoundedQueue("q", capacity=3)
        for _ in range(3):
            queue.admit(0.0, departure_time=10.0)
        assert queue.max_occupancy_seen == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue("q", capacity=0)


class TestTokenPool:
    def test_grant_immediate_when_tokens_available(self):
        pool = TokenPool("mshrs", tokens=2)
        assert pool.acquire(0.0) == 0.0

    def test_grant_waits_when_exhausted(self):
        pool = TokenPool("mshrs", tokens=2)
        pool.acquire(0.0)
        pool.release_at(4.0)
        pool.acquire(0.0)
        pool.release_at(6.0)
        assert pool.acquire(1.0) == pytest.approx(4.0)

    def test_tokens_free_after_release_time(self):
        pool = TokenPool("mshrs", tokens=1)
        pool.acquire(0.0)
        pool.release_at(2.0)
        assert pool.acquire(3.0) == pytest.approx(3.0)

    def test_acquire_without_hint_and_release_at(self):
        pool = TokenPool("mshrs", tokens=1)
        grant = pool.acquire(0.0)
        pool.release_at(4.0)
        assert grant == 0.0
        assert pool.acquire(1.0) == pytest.approx(4.0)

    def test_in_use_counts_outstanding(self):
        pool = TokenPool("mshrs", tokens=4)
        for release in (10.0, 20.0):
            pool.acquire(0.0)
            pool.release_at(release)
        assert pool.in_use(5.0) == 2
        assert pool.in_use(15.0) == 1

    def test_total_wait(self):
        pool = TokenPool("mshrs", tokens=1)
        for release in (4.0, 8.0):
            pool.acquire(0.0)
            pool.release_at(release)
        assert pool.acquisitions == 2
        assert pool.total_wait == pytest.approx(4.0)

    def test_rejects_zero_tokens(self):
        with pytest.raises(ValueError):
            TokenPool("x", tokens=0)


class TestResourceEdgeCases:
    """Edge cases CI now exercises on every push: queue overflow admission
    and out-of-order token releases."""

    def test_bounded_queue_admission_overflow_path(self):
        # Occupancy can exceed capacity because admit() books future-time
        # admissions; a new entry must then wait for enough departures
        # (the capacity-th latest one), not just the earliest one.
        queue = BoundedQueue("q", capacity=2)
        queue.admit(0.0, departure_time=10.0)
        queue.admit(0.0, departure_time=20.0)
        assert queue.admit(0.0, departure_time=30.0) == pytest.approx(10.0)
        assert queue.admit(0.0, departure_time=40.0) == pytest.approx(20.0)
        # Four residents, capacity 2: a fifth entry needs three departures.
        assert queue.occupancy(5.0) == 4
        assert queue.admit(5.0, departure_time=50.0) == pytest.approx(30.0)
        assert queue.max_occupancy_seen == 5

    def test_token_pool_release_at_out_of_order(self):
        pool = TokenPool("mshrs", tokens=2)
        pool.acquire(0.0)
        pool.acquire(0.0)
        # Releases registered in reverse completion order: the heap must
        # grant against the earliest release, not the insertion order.
        pool.release_at(40.0)
        pool.release_at(10.0)
        assert pool.in_use(0.0) == 2
        assert pool.acquire(0.0) == pytest.approx(10.0)
        pool.release_at(50.0)
        assert pool.in_use(20.0) == 2  # 10.0 expired; 40.0 and 50.0 remain
        assert pool.in_use(60.0) == 0


class _NaiveSerialReference:
    """Bit-exact reference for the single-server backfill scan, with no
    prune horizon: a plain left-to-right scan over coalesced intervals,
    mirroring reserve()'s adequacy test exactly."""

    _EPS = 1e-15

    def __init__(self):
        self.intervals = []  # sorted, disjoint (start, end)

    def reserve(self, now, duration):
        candidate = now
        for start, end in self.intervals:
            if end <= candidate:
                continue
            if candidate + duration <= start + self._EPS:
                break
            if end > candidate:
                candidate = end
        self.intervals.append((candidate, candidate + duration))
        self.intervals.sort()
        merged = []
        for start, end in self.intervals:
            if merged and start <= merged[-1][1] + self._EPS:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self.intervals = merged
        return candidate + duration


class TestBackfillScanIndex:
    """The reservation kernel's backfill scan (bisect to the first interval
    ending after the request, then walk the gaps) places every reservation
    where a plain scan over the whole timeline does, to the last bit."""

    def test_comb_placements_match_plain_scan(self):
        resource = SerialResource("hot-link")
        reference = _NaiveSerialReference()
        for i in range(500):
            now, duration = i * 1e-9, 0.6e-9
            assert resource.reserve(now, duration) == reference.reserve(now, duration)
        for _ in range(50):
            assert resource.reserve(0.0, 0.5e-9) == reference.reserve(0.0, 0.5e-9)

    def test_smaller_duration_ignores_longer_proof(self):
        # A 0.5 ns scan over 0.4 ns gaps must not block a later 0.3 ns
        # reservation from backfilling.
        resource = SerialResource("link")
        for i in range(10):
            resource.reserve(i * 1e-9, 0.6e-9)  # gaps of 0.4 ns
        tail = resource.reserve(0.0, 0.5e-9)  # too long for any gap
        assert tail == pytest.approx(9 * 1e-9 + 0.6e-9 + 0.5e-9)
        backfilled = resource.reserve(0.0, 0.3e-9)  # fits the first gap
        assert backfilled == pytest.approx(0.6e-9 + 0.3e-9)

    def test_randomized_equivalence_with_plain_scan(self):
        import random

        rng = random.Random(20080621)
        for _ in range(20):
            resource = SerialResource("link")
            reference = _NaiveSerialReference()
            clock = 0.0
            for _ in range(300):
                clock += rng.random() * 2e-9
                now = max(0.0, clock - rng.random() * 3e-9)
                duration = rng.choice((0.0, 0.3e-9, 0.5e-9, 2e-9)) * (
                    1.0 + rng.random()
                )
                assert resource.reserve(now, duration) == reference.reserve(
                    now, duration
                )

    def test_randomized_equivalence_across_prune_horizon(self):
        # Larger steps walk the clock far past the 5 us prune horizon while
        # requests stay within it, so pruning (which merges old gaps) is
        # exercised against the same reference.
        import random

        rng = random.Random(2008)
        resource = SerialResource("link")
        reference = _NaiveSerialReference()
        clock = 0.0
        for _ in range(2000):
            clock += rng.random() * 0.5e-6
            now = max(0.0, clock - rng.random() * 2e-6)
            duration = rng.choice((0.0, 10e-9, 50e-9)) * (1.0 + rng.random())
            assert resource.reserve(now, duration) == reference.reserve(
                now, duration
            )

    def test_long_run_stays_pruned(self):
        # 2000 disjoint reservations spanning 40 us against the 5 us prune
        # horizon: the committed-interval lists stay bounded, and a
        # backfill into the pruned past still lands at the request time.
        ns = 1e-9
        resource = SerialResource("link")
        for index in range(2000):
            resource.reserve(index * 20 * ns, 10 * ns)
        assert len(resource._ends) < 600
        assert len(resource._starts) == len(resource._ends)
        gap_instant = 1999 * 20 * ns - 5 * ns
        assert resource.reserve(gap_instant, 2 * ns) == pytest.approx(
            gap_instant + 2 * ns
        )
