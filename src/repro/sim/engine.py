"""A small, fast discrete-event simulation engine.

The engine is a classic event calendar: callbacks scheduled at absolute
simulated times, executed in time order.  Components interact by scheduling
events on a shared :class:`Simulator` and by reading ``simulator.now``.

Design notes
------------
* Heap entries are plain tuples ``(time, seq, callback, args)``.  Tuple
  comparison happens entirely in C (time first, then the insertion sequence
  number), so ordering ties in time are processed in FIFO order without any
  Python-level ``__lt__`` calls, which keeps runs deterministic *and* cheap:
  the per-event cost is one tuple allocation instead of an object with five
  attribute stores plus hundreds of thousands of interpreted comparisons.
* :meth:`Simulator.run` is pop and dispatch: it runs until the calendar
  drains, with no cancellation, stop request or time and event bounds to
  test per event.  No model needs them: every stage is scheduled at the
  time it actually starts and always runs.
* The engine deliberately has no notion of processes/coroutines.  The Corona
  models are resource-occupancy models (see :mod:`repro.sim.resources`), and a
  plain callback engine keeps the per-event overhead low enough to replay
  hundreds of thousands of L2-miss transactions in pure Python.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

#: A scheduled callback: ``(time, seq, callback, args)``.
Event = Tuple[float, int, Callable[..., None], tuple]


class EventQueue:
    """A binary-heap event calendar over tuple entries.

    :meth:`push` returns the heap tuple it pushed; :meth:`Simulator.run`
    pops the entries in ``(time, seq)`` order.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callable[..., None], args: tuple) -> Event:
        entry = (time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry


class Simulator:
    """The simulation driver.

    Typical use::

        sim = Simulator()
        sim.schedule(10e-9, handler, arg1, arg2)
        sim.run()
        print(sim.now)
    """

    __slots__ = ("_queue", "now", "events_executed")

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self.events_executed: int = 0

    # -- scheduling ---------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        return self._queue.push(time, callback, args)

    # -- execution ----------------------------------------------------------
    def run(self) -> None:
        """Execute events in time order until the calendar drains."""
        heap = self._queue._heap
        heappop = heapq.heappop
        executed = 0
        try:
            while heap:
                time, _, callback, args = heappop(heap)
                self.now = time
                callback(*args)
                executed += 1
        finally:
            self.events_executed += executed

    def pending_events(self) -> int:
        """Number of events still on the calendar."""
        return len(self._queue)
