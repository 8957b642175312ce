"""Resource-occupancy primitives for bandwidth, ports and queues.

The Corona network study is a contention study: requests compete for channel
bandwidth, mesh links, memory-controller ports and DRAM banks.  Rather than
simulating each cycle of each wire, the models reserve time on single-server
busy-interval timelines.  A timeline is the set of busy intervals already
committed, kept as two parallel sorted lists of starts and ends; a
reservation of ``duration`` seconds requested at time ``t`` is granted in the
earliest gap of sufficient length starting at or after ``t``.  This captures
serialization delay, queueing delay and utilization, and -- because
reservations may *backfill* earlier idle gaps -- it stays accurate even when
reservations are requested slightly out of time order (for example a
data-return reserved 20 ns ahead of commands that arrive in between).

:func:`reserve_interval` is the one reservation on such a timeline.
:class:`SerialResource` (a mesh link, a memory channel) wraps one timeline
with argument checks and a busy-time counter.  Two hot paths call the kernel
directly: each hop of the electrical mesh, on its link's lists, and each
access to the DRAM bank table of :class:`~repro.memory.dram.OcmModule`, on
the bank's row.

:class:`BoundedQueue` adds finite capacity (back-pressure) on top, and
:class:`TokenPool` models a counted resource such as MSHRs; both book their
entries in one :class:`AdmissionHeaps`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
import heapq
from typing import List

#: Gaps shorter than this are considered zero (floating-point noise guard).
_EPSILON = 1e-15

#: Committed intervals that ended this long before the newest request time are
#: dropped.  Future reservation requests may be out of order with respect to
#: past ones by at most the latency of an in-flight transaction, which is far
#: below this horizon in every Corona configuration.
_PRUNE_HORIZON = 5e-6


def reserve_interval(
    starts: List[float],
    ends: List[float],
    now: float,
    duration: float,
    high_water: float,
) -> float:
    """Reserve ``duration`` seconds on one single-server timeline, starting
    no earlier than ``now``; returns the start time.

    ``starts``/``ends`` are the timeline's parallel, sorted, disjoint
    interval lists, and ``high_water`` the latest request time the caller
    has seen (at least ``now``).  Intervals that ended more than
    :data:`_PRUNE_HORIZON` before ``high_water`` are dropped first.  The
    reservation takes the earliest gap that fits -- at ``now`` without a
    search when every interval ends by then -- and is committed coalesced
    with the intervals it touches, so the lists stay disjoint.
    """
    if ends:
        prune_before = high_water - _PRUNE_HORIZON
        if ends[0] <= prune_before and prune_before > 0:
            cut = bisect_right(ends, prune_before)
            del ends[:cut]
            del starts[:cut]
    start = now
    index = n = len(ends)
    if n and ends[-1] > now:
        # Earliest gap of ``duration`` seconds at or after ``now``; with
        # every interval ended by ``now`` there is nothing to search.
        index = bisect_right(ends, now)
        while index < n:
            if start + duration <= starts[index] + _EPSILON:
                break
            interval_end = ends[index]
            if interval_end > start:
                start = interval_end
            index += 1
    end = start + duration
    if index >= n or start > starts[-1]:
        # Tail commit: the reservation lands after the last interval's start.
        if n and ends[-1] >= start - _EPSILON:
            if end > ends[-1]:
                ends[-1] = end
        else:
            starts.append(start)
            ends.append(end)
        return start
    # Interior commit, coalesced with the previous interval when contiguous.
    index = bisect_left(starts, start)
    if index > 0 and ends[index - 1] >= start - _EPSILON:
        merged = index - 1
        if end > ends[merged]:
            ends[merged] = end
    else:
        starts.insert(index, start)
        ends.insert(index, end)
        merged = index
    # Coalesce with following intervals swallowed by the new one.
    following = merged + 1
    while following < len(starts) and starts[following] <= ends[merged] + _EPSILON:
        if ends[following] > ends[merged]:
            ends[merged] = ends[following]
        del starts[following]
        del ends[following]
    return start


class SerialResource:
    """A single-server resource (a link, a channel) with gap backfill: one
    :func:`reserve_interval` timeline plus its busy time."""

    __slots__ = ("name", "_starts", "_ends", "busy_time", "_high_water_request")

    def __init__(self, name: str) -> None:
        self.name = name
        # Parallel lists of interval starts and ends, sorted.
        self._starts: List[float] = []
        self._ends: List[float] = []
        self.busy_time: float = 0.0
        self._high_water_request: float = 0.0

    def reserve(self, now: float, duration: float) -> float:
        """Reserve the resource for ``duration`` seconds starting no earlier than ``now``.

        Returns the time at which the reservation *ends* (i.e. when the
        transfer completes).  The start time is ``end - duration``.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if now < 0:
            raise ValueError(f"time must be non-negative, got {now}")
        if now > self._high_water_request:
            self._high_water_request = now
        start = reserve_interval(
            self._starts, self._ends, now, duration, self._high_water_request
        )
        self.busy_time += duration
        return start + duration

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over ``elapsed`` seconds of simulated time."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed


class AdmissionHeaps:
    """Departure times booked against ``capacity`` slots, with O(log n)
    admission.

    An entry books a slot until its departure time.  A new entry is
    admitted at the ``capacity``-th latest booked departure still after
    ``now`` (``now`` itself while fewer than ``capacity`` are booked): from
    then on at most ``capacity - 1`` earlier entries remain.  Two min-heaps
    keep that departure at a heap top:

    * ``latest`` holds the ``capacity`` latest departures;
    * ``earlier`` holds the rest, none later than ``latest[0]``.

    So ``earlier`` is non-empty only while ``latest`` is full, admission
    reads ``latest[0]``, and expiry drains ``earlier`` before ``latest``.
    Booking runs ahead of admission: entries still waiting for a slot are
    booked too (see :class:`BoundedQueue`).
    """

    __slots__ = ("capacity", "latest", "earlier", "peak")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.latest: List[float] = []
        self.earlier: List[float] = []
        #: The most departures booked at one time.
        self.peak: int = 0

    def __len__(self) -> int:
        return len(self.latest) + len(self.earlier)

    def admission(self, now: float) -> float:
        """Drop departures at or before ``now``; return the earliest time
        at or after ``now`` at which a new entry gets a slot."""
        earlier = self.earlier
        while earlier and earlier[0] <= now:
            heapq.heappop(earlier)
        latest = self.latest
        if not earlier:
            while latest and latest[0] <= now:
                heapq.heappop(latest)
            if len(latest) < self.capacity:
                return now
        return latest[0]

    def push(self, departure: float) -> None:
        """Book an entry that departs at ``departure``."""
        latest = self.latest
        earlier = self.earlier
        if len(latest) < self.capacity:
            heapq.heappush(latest, departure)
        elif departure > latest[0]:
            heapq.heappush(earlier, heapq.heapreplace(latest, departure))
        else:
            heapq.heappush(earlier, departure)
        booked = len(latest) + len(earlier)
        if booked > self.peak:
            self.peak = booked

    def count_after(self, now: float) -> int:
        """Booked departures later than ``now``.  Expires nothing: a later
        admission may ask at an earlier ``now``."""
        return sum(1 for departure in self.latest + self.earlier if departure > now)


class BoundedQueue:
    """A finite-capacity FIFO used to model buffers with back-pressure.

    The queue is analytic: an entry books a slot from the moment it is
    pushed until its announced departure time, and :meth:`admit` returns
    when it gets a slot (:class:`AdmissionHeaps`), which is how upstream
    senders experience back-pressure.  The rule is the same as an
    explicit FIFO waiting room in front of ``capacity`` slots, and the
    booked entries are that room's resident *and* waiting ones: so
    :meth:`occupancy` and ``max_occupancy_seen`` can exceed ``capacity``
    while no more than ``capacity`` entries are ever resident.
    """

    __slots__ = ("name", "heaps")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.heaps = AdmissionHeaps(capacity)

    @property
    def capacity(self) -> int:
        return self.heaps.capacity

    @property
    def max_occupancy_seen(self) -> int:
        """The most entries booked at one time, resident or waiting."""
        return self.heaps.peak

    def occupancy(self, now: float) -> int:
        """Entries booked to depart after ``now``: those resident at ``now``
        plus those still waiting for a slot.  Expires nothing."""
        return self.heaps.count_after(now)

    def admit(self, now: float, departure_time: float) -> float:
        """Admit an entry that will depart at ``departure_time``.

        Returns the actual admission time (>= ``now``) after back-pressure.
        ``departure_time`` must be no earlier than the admission time.
        """
        heaps = self.heaps
        admit_at = heaps.admission(now)
        if departure_time < admit_at:
            raise ValueError(
                f"departure {departure_time} precedes admission {admit_at}"
            )
        heaps.push(departure_time)
        return admit_at


class TokenPool:
    """A counted resource (e.g. MSHRs): acquire blocks until a token frees up.

    Like :class:`BoundedQueue`, the pool is analytic: each outstanding token is
    booked until its release time in an :class:`AdmissionHeaps`, and an
    acquisition made when the pool is exhausted is granted when enough
    booked tokens have been released.
    """

    __slots__ = ("name", "heaps", "acquisitions", "total_wait")

    def __init__(self, name: str, tokens: int) -> None:
        if tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {tokens}")
        self.name = name
        self.heaps = AdmissionHeaps(tokens)
        self.acquisitions: int = 0
        self.total_wait: float = 0.0

    def in_use(self, now: float) -> int:
        """Tokens booked to be released after ``now``.  Expires nothing."""
        return self.heaps.count_after(now)

    def acquire(self, now: float) -> float:
        """Acquire a token at or after ``now``; returns the grant time.  The
        holder books the token's release with :meth:`release_at`."""
        grant = self.heaps.admission(now)
        self.acquisitions += 1
        self.total_wait += grant - now
        return grant

    def release_at(self, release_time: float) -> None:
        """Book the release time of a token acquired earlier."""
        self.heaps.push(release_time)
