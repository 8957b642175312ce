"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventQueue, Simulator


class TestEventQueue:
    def test_starts_empty(self):
        assert len(EventQueue()) == 0

    def test_push_and_pop_in_time_order(self):
        sim = Simulator()
        order = []
        sim._queue.push(3.0, order.append, ("c",))
        sim._queue.push(1.0, order.append, ("a",))
        sim._queue.push(2.0, order.append, ("b",))
        assert len(sim._queue) == 3
        sim.run()
        assert order == ["a", "b", "c"]
        assert len(sim._queue) == 0

    def test_ties_processed_in_insertion_order(self):
        sim = Simulator()
        order = []
        first = sim._queue.push(1.0, order.append, ("first",))
        second = sim._queue.push(1.0, order.append, ("second",))
        assert first < second  # the sequence number breaks the tie
        sim.run()
        assert order == ["first", "second"]


class TestSimulator:
    def test_now_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_executes_events_and_advances_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1e-9, seen.append, "first")
        sim.schedule(3e-9, seen.append, "second")
        assert sim.pending_events() == 2
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == pytest.approx(3e-9)
        assert sim.events_executed == 2
        assert sim.pending_events() == 0

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 5:
                sim.schedule(1e-9, chain, depth + 1)

        sim.schedule(0.0, chain, 1)
        sim.run()
        assert seen == [1, 2, 3, 4, 5]
        assert sim.now == pytest.approx(4e-9)

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1e-9, lambda: None)

    def test_schedule_at_rejects_past_times(self):
        sim = Simulator()
        sim.schedule(5e-9, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1e-9, lambda: None)

    def test_deterministic_order_for_simultaneous_events(self):
        sim = Simulator()
        seen = []
        for label in range(20):
            sim.schedule(1e-9, seen.append, label)
        sim.run()
        assert seen == list(range(20))

    def test_failing_event_leaves_count_and_calendar_consistent(self):
        """An exception escapes ``run`` after counting the events that
        completed; the failed event is off the calendar, the rest remain."""
        sim = Simulator()

        def fail():
            raise RuntimeError("boom")

        sim.schedule(1e-9, lambda: None)
        sim.schedule(2e-9, fail)
        sim.schedule(3e-9, lambda: None)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.events_executed == 1
        assert sim.now == pytest.approx(2e-9)
        assert sim.pending_events() == 1
