"""Discrete-event simulation kernel used by every Corona subsystem.

The kernel is intentionally small and dependency free.  It provides:

* :mod:`repro.sim.units` -- the unit convention (seconds, bytes, bytes per
  second, anything else named by its suffix) and the cache-line size.
* :mod:`repro.sim.engine` -- a classic event-calendar simulator built on a
  binary heap.
* :mod:`repro.sim.resources` -- the busy-interval reservation behind links,
  channels and DRAM banks, plus the bounded queues and token pools that model
  back-pressure.
* :mod:`repro.sim.stats` -- the running mean, latency histogram and geometric
  mean the replay's results are computed with.
"""

from repro.sim.engine import Simulator
from repro.sim.resources import BoundedQueue, SerialResource, TokenPool
from repro.sim.stats import Histogram, RunningStats
from repro.sim.units import CACHE_LINE_BYTES

__all__ = [
    "Simulator",
    "BoundedQueue",
    "SerialResource",
    "TokenPool",
    "Histogram",
    "RunningStats",
    "CACHE_LINE_BYTES",
]
