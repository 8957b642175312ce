"""Resource-occupancy primitives for bandwidth, ports and queues.

The Corona network study is a contention study: requests compete for channel
bandwidth, mesh links, memory-controller ports and DRAM banks.  Rather than
simulating each cycle of each wire, the models reserve time on *serial
resources*.  A serial resource maintains, per server, the set of busy
intervals already committed; a reservation of ``duration`` seconds requested
at time ``t`` is granted in the earliest gap of sufficient length starting at
or after ``t``.  This captures serialization delay, queueing delay and
utilization, and -- because reservations may *backfill* earlier idle gaps --
it stays accurate even when reservations are requested slightly out of time
order (for example a data-return reserved 20 ns ahead of commands that arrive
in between).

:class:`BoundedQueue` adds finite capacity (back-pressure) on top, and
:class:`TokenPool` models a counted resource such as MSHRs; both book their
entries in one :class:`AdmissionHeaps`.
"""

from __future__ import annotations

import bisect
import heapq
from typing import List, Optional

#: Gaps shorter than this are considered zero (floating-point noise guard).
_EPSILON = 1e-15

#: Committed intervals that ended this long before the newest request time are
#: dropped.  Future reservation requests may be out of order with respect to
#: past ones by at most the latency of an in-flight transaction, which is far
#: below this horizon in every Corona configuration.
_PRUNE_HORIZON = 5e-6


def insert_interval(
    starts: List[float], ends: List[float], start: float, end: float
) -> None:
    """Commit the busy interval ``[start, end)`` to one server's timeline.

    ``starts``/``ends`` are the server's parallel, sorted interval lists;
    the new interval is coalesced with any it touches, so they stay
    disjoint.  Shared by :class:`SerialResource` and the DRAM bank table of
    :class:`~repro.memory.dram.OcmModule`.
    """
    # Tail fast path: most reservations are requested roughly in time
    # order, so they land after every committed interval.
    if not starts:
        starts.append(start)
        ends.append(end)
        return
    if start > starts[-1]:
        if ends[-1] >= start - _EPSILON:
            if end > ends[-1]:
                ends[-1] = end
        else:
            starts.append(start)
            ends.append(end)
        return
    index = bisect.bisect_left(starts, start)
    # Coalesce with the previous interval when contiguous.
    if index > 0 and ends[index - 1] >= start - _EPSILON:
        ends[index - 1] = max(ends[index - 1], end)
        merged_index = index - 1
    else:
        starts.insert(index, start)
        ends.insert(index, end)
        merged_index = index
    # Coalesce with following intervals swallowed by the new one.
    next_index = merged_index + 1
    while next_index < len(starts) and starts[next_index] <= ends[merged_index] + _EPSILON:
        ends[merged_index] = max(ends[merged_index], ends[next_index])
        del starts[next_index]
        del ends[next_index]


class SerialResource:
    """A resource with a fixed number of identical servers and gap backfill.

    With ``servers=1`` this is a single channel/link; with ``servers=n`` it is
    an ``n``-ported resource.
    """

    __slots__ = (
        "name",
        "servers",
        "_starts",
        "_ends",
        "busy_time",
        "reservations",
        "_high_water_request",
        "scan_steps",
        "_skip_lo",
        "_skip_hi",
        "_skip_len",
    )

    def __init__(self, name: str, servers: int = 1) -> None:
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.name = name
        self.servers = servers
        # Per server: parallel lists of interval starts and ends, sorted.
        self._starts: List[List[float]] = [[] for _ in range(servers)]
        self._ends: List[List[float]] = [[] for _ in range(servers)]
        self.busy_time: float = 0.0
        self.reservations: int = 0
        self._high_water_request: float = 0.0
        #: Interval-test count across all backfill scans (perf regression
        #: hook: a congested resource must not rescan its whole timeline
        #: on every reservation).
        self.scan_steps: int = 0
        # Proven-gap window for the single-server backfill scan: every free
        # gap whose start lies in [_skip_lo, _skip_hi) was proven too short
        # for a reservation of _skip_len seconds (or longer), so a scan for
        # duration >= _skip_len starting inside the window may jump straight
        # to _skip_hi.  Sound because committed intervals only shrink gaps;
        # pruning -- the one operation that merges gaps -- advances _skip_lo
        # past the merged region (see reserve/next_available).
        self._skip_lo: float = 0.0
        self._skip_hi: float = 0.0
        self._skip_len: float = 0.0

    # -- internal helpers ----------------------------------------------------
    def _prune(self, server: int, before: float) -> None:
        ends = self._ends[server]
        starts = self._starts[server]
        index = bisect.bisect_right(ends, before)
        if index:
            del ends[:index]
            del starts[:index]

    def _find_gap(self, server: int, now: float, duration: float) -> float:
        """Earliest start >= ``now`` of a free gap of ``duration`` on ``server``."""
        starts = self._starts[server]
        ends = self._ends[server]
        candidate = now
        # Skip intervals that end at or before the candidate start.
        index = bisect.bisect_right(ends, candidate)
        while index < len(starts):
            self.scan_steps += 1
            if candidate + duration <= starts[index] + _EPSILON:
                return candidate
            candidate = max(candidate, ends[index])
            index += 1
        return candidate

    # -- proven-gap window (single-server backfill scan) ---------------------
    def _record_skip_window(self, lo: float, hi: float, duration: float) -> None:
        """A scan for ``duration`` just advanced from ``lo`` to ``hi``: every
        free gap starting in ``[lo, hi)`` is too short for ``duration``
        (gap adequacy is monotone in the candidate position, so positions
        between visited interval ends are covered too)."""
        old_lo, old_hi, old_len = self._skip_lo, self._skip_hi, self._skip_len
        if old_hi <= old_lo:
            # No live window.
            self._skip_lo, self._skip_hi, self._skip_len = lo, hi, duration
        elif lo >= old_lo and hi <= old_hi and duration >= old_len:
            # Already covered by a claim at least as strong.
            return
        elif lo <= old_hi and old_lo <= hi:
            # Overlapping/adjacent: merge.  The union holds only for
            # durations covered by both claims, hence the max.
            self._skip_lo = old_lo if old_lo < lo else lo
            self._skip_hi = old_hi if old_hi > hi else hi
            self._skip_len = old_len if old_len > duration else duration
        elif hi > old_hi:
            # Disjoint and ahead of the old window: scans move forward in
            # time, so the newer window is the useful one.
            self._skip_lo, self._skip_hi, self._skip_len = lo, hi, duration

    def _prune_skip_window(self, starts: List[float]) -> None:
        """Pruning merged every gap before the (new) first interval into one
        open stretch, voiding proofs there; claims at or beyond the first
        remaining interval's start are untouched by deleting earlier ones."""
        if starts:
            if self._skip_lo < starts[0]:
                self._skip_lo = starts[0]
        else:
            self._skip_hi = self._skip_lo  # empty timeline: no proofs survive

    # -- public API ------------------------------------------------------------
    def next_available(self, now: float) -> float:
        """Earliest time a zero-length reservation made at ``now`` could start.

        Mirrors the pruned single-server fast path of :meth:`reserve`:
        expired intervals (older than the prune horizon behind the newest
        reservation request) are dropped first, and because committed
        intervals are kept disjoint by :func:`insert_interval`, a single
        bisect answers the query -- ``now`` itself when no interval covers
        it, otherwise the covering interval's end.  Long-running replays
        previously paid a scan over every interval ever committed on
        resources queried through :meth:`queue_delay` but rarely reserved.
        """
        prune_before = self._high_water_request - _PRUNE_HORIZON
        if self.servers == 1:
            starts = self._starts[0]
            ends = self._ends[0]
            if prune_before > 0 and ends and ends[0] <= prune_before:
                cut = bisect.bisect_right(ends, prune_before)
                del ends[:cut]
                del starts[:cut]
                self._prune_skip_window(starts)
            index = bisect.bisect_right(ends, now)
            if index >= len(starts) or now <= starts[index] + _EPSILON:
                return now
            return ends[index]
        best = None
        for server in range(self.servers):
            if prune_before > 0:
                self._prune(server, prune_before)
            starts = self._starts[server]
            ends = self._ends[server]
            index = bisect.bisect_right(ends, now)
            if index >= len(starts) or now <= starts[index] + _EPSILON:
                return now
            if best is None or ends[index] < best:
                best = ends[index]
        return best

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
        prune_before = self._high_water_request - _PRUNE_HORIZON

        if self.servers == 1:
            # Single-server fast path (links, channels): prune only
            # when something is actually expired, inline the gap search, and
            # insert through the tail fast path of :func:`insert_interval`.
            starts = self._starts[0]
            ends = self._ends[0]
            if prune_before > 0 and ends and ends[0] <= prune_before:
                cut = bisect.bisect_right(ends, prune_before)
                del ends[:cut]
                del starts[:cut]
                self._prune_skip_window(starts)
            candidate = now
            index = bisect.bisect_right(ends, candidate)
            if duration >= self._skip_len and self._skip_lo <= candidate < self._skip_hi:
                # Every gap starting in the window was already proven too
                # short for this duration; resume the scan past it.
                candidate = self._skip_hi
                index = bisect.bisect_right(ends, candidate)
            n = len(starts)
            steps = 0
            while index < n:
                if candidate + duration <= starts[index] + _EPSILON:
                    break
                interval_end = ends[index]
                if interval_end > candidate:
                    candidate = interval_end
                index += 1
                steps += 1
            self.scan_steps += steps
            if candidate > now:
                self._record_skip_window(now, candidate, duration)
            end = candidate + duration
            if index >= n:
                # Tail commit, inlined: the reservation lands at or after the
                # last committed interval.
                if n and ends[-1] >= candidate - _EPSILON:
                    if end > ends[-1]:
                        ends[-1] = end
                else:
                    starts.append(candidate)
                    ends.append(end)
            else:
                insert_interval(starts, ends, candidate, end)
            self.busy_time += duration
            self.reservations += 1
            return end

        best_server = 0
        best_start = None
        for server in range(self.servers):
            if prune_before > 0:
                self._prune(server, prune_before)
            start = self._find_gap(server, now, duration)
            if best_start is None or start < best_start:
                best_server = server
                best_start = start
                if start <= now + _EPSILON:
                    break
        end = best_start + duration
        insert_interval(
            self._starts[best_server], self._ends[best_server], best_start, end
        )
        self.busy_time += duration
        self.reservations += 1
        return end

    def queue_delay(self, now: float) -> float:
        """How long a zero-length reservation made at ``now`` would wait."""
        return self.next_available(now) - now

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over ``elapsed`` seconds of simulated time."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.servers)

    def reset(self) -> None:
        # In place: the electrical mesh binds each link's interval lists
        # once, at construction.
        for starts in self._starts:
            starts.clear()
        for ends in self._ends:
            ends.clear()
        self.busy_time = 0.0
        self.reservations = 0
        self._high_water_request = 0.0
        self.scan_steps = 0
        self._skip_lo = 0.0
        self._skip_hi = 0.0
        self._skip_len = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialResource({self.name!r}, servers={self.servers})"


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

    __slots__ = ("capacity", "latest", "earlier", "pushes", "peak")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.latest: List[float] = []
        self.earlier: List[float] = []
        #: Departures booked so far, and the most booked at one time.
        self.pushes: int = 0
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
        self.pushes += 1
        booked = len(latest) + len(earlier)
        if booked > self.peak:
            self.peak = booked

    def count_after(self, now: float) -> int:
        """Booked departures later than ``now``.  Expires nothing: a later
        admission may ask at an earlier ``now``."""
        return sum(1 for departure in self.latest + self.earlier if departure > now)

    def clear(self) -> None:
        self.latest.clear()
        self.earlier.clear()
        self.pushes = 0
        self.peak = 0


class BoundedQueue:
    """A finite-capacity FIFO used to model buffers with back-pressure.

    The queue is analytic: an entry books a slot from the moment it is
    pushed until its announced departure time, and ``admission_time`` says
    when a new entry gets a slot (:class:`AdmissionHeaps`), which is how
    upstream senders experience back-pressure.  The rule is the same as an
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
    def total_admitted(self) -> int:
        return self.heaps.pushes

    @property
    def max_occupancy_seen(self) -> int:
        """The most entries booked at one time, resident or waiting."""
        return self.heaps.peak

    def occupancy(self, now: float) -> int:
        """Entries booked to depart after ``now``: those resident at ``now``
        plus those still waiting for a slot.  Expires nothing."""
        return self.heaps.count_after(now)

    def admission_time(self, now: float) -> float:
        """Earliest time at which a new entry could be admitted."""
        return self.heaps.admission(now)

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

    def reset(self) -> None:
        self.heaps.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedQueue({self.name!r}, capacity={self.capacity})"


class TokenPool:
    """A counted resource (e.g. MSHRs): acquire blocks until a token frees up.

    Like :class:`BoundedQueue`, the pool is analytic: each outstanding token is
    booked until its release time in an :class:`AdmissionHeaps`, and an
    acquisition made when the pool is exhausted is granted when enough
    booked tokens have been released.
    """

    __slots__ = ("name", "tokens", "heaps", "acquisitions", "total_wait")

    def __init__(self, name: str, tokens: int) -> None:
        if tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {tokens}")
        self.name = name
        self.tokens = tokens
        self.heaps = AdmissionHeaps(tokens)
        self.acquisitions: int = 0
        self.total_wait: float = 0.0

    def in_use(self, now: float) -> int:
        """Tokens booked to be released after ``now``.  Expires nothing."""
        return self.heaps.count_after(now)

    def acquire(self, now: float, release_time_hint: Optional[float] = None) -> float:
        """Acquire a token at or after ``now``; returns the grant time.

        ``release_time_hint`` may be provided when the release time is already
        known.  If omitted, the token must be released later via
        :meth:`release_at`.
        """
        grant = self.heaps.admission(now)
        self.acquisitions += 1
        self.total_wait += grant - now
        if release_time_hint is not None:
            if release_time_hint < grant:
                raise ValueError(
                    f"release {release_time_hint} precedes grant {grant}"
                )
            self.heaps.push(release_time_hint)
        return grant

    def release_at(self, release_time: float) -> None:
        """Register the release time for a token acquired without a hint."""
        self.heaps.push(release_time)

    def average_wait(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait / self.acquisitions

    def reset(self) -> None:
        self.heaps.clear()
        self.acquisitions = 0
        self.total_wait = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenPool({self.name!r}, tokens={self.tokens})"
