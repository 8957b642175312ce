"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

The benchmark host is a shared VM whose speed drifts by 20-60% between
minutes, in CPU time as well as wall time, as other tenants contend for
cores and caches; repeating the work inside one run cannot remove a drift
that outlasts the run.  The kernel below does the same kind of work as the
replay -- heap pushes and pops, dict stores and lookups, slotted attribute
updates scattered over a working set of 200k objects -- and never touches
the program, so a faster program cannot make it faster.

A run times the kernel several times before every repetition and after the
last one, and scales each repetition by ``host_factor`` of the kernels right
before and right after it: REFERENCE_S over their median.  Because the
kernel's working set is about the replay's size, contention slows both by
about the same ratio, so the full ratio is used.  An earlier cache-resident
kernel slowed about twice as much as the replay and needed a square root;
on the same six seeds per replay workload it left spreads of run medians
(interquartile range over median) of 0.06-0.24, against 0.05-0.10 for a
first version of this kernel and 0.13-0.15 raw.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from array import array
from heapq import heappop, heappush
from typing import Iterable, List, Optional, Tuple

#: The kernel's wall time on the reference host when it is quiet (2-vCPU
#: x86-64 VM, Python 3.11).  It only sets the scale of normalized timings;
#: changing it rescales all of them.
REFERENCE_S = 0.2

#: Kernel runs before each repetition, after the last one, and per set-up probe.
KERNELS_PER_GAP = 3

_ITERATIONS = 100_000
_OBJECTS = 200_000


class _Slot:
    __slots__ = ("busy", "count")

    def __init__(self) -> None:
        self.busy = 0.0
        self.count = 0


#: (objects, object index per step, key per step), built once, outside the
#: timer.  The per-step columns are arrays, like the replay's packed traces.
_INPUTS: Optional[Tuple[List[_Slot], array, array]] = None


def _inputs() -> Tuple[List[_Slot], array, array]:
    global _INPUTS
    if _INPUTS is None:
        rng = random.Random(12345)
        _INPUTS = (
            [_Slot() for _ in range(_OBJECTS)],
            array("l", (rng.randrange(_OBJECTS) for _ in range(_ITERATIONS))),
            array("l", (rng.randrange(1 << 17) for _ in range(_ITERATIONS))),
        )
    return _INPUTS


def _kernel(objects: List[_Slot], picks: array, keys: array) -> float:
    heap, table, total = [], {}, 0.0
    for index in range(_ITERATIONS):
        slot = objects[picks[index]]
        stamp = slot.busy + 1.5
        heappush(heap, (stamp, index))
        if len(heap) > 256:
            stamp, _owner = heappop(heap)
            slot.busy = stamp
        table[keys[index]] = slot
        other = table.get(keys[index - 1])
        if other is not None:
            other.count += 1
        total += stamp
    return total


def kernel_seconds() -> Tuple[float, float]:
    """(wall, CPU) seconds of one kernel run.

    The cyclic collector is paused so the kernel's time does not depend on
    how many objects the calling process happens to hold.
    """
    inputs = _inputs()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        _kernel(*inputs)
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if was_enabled:
            gc.enable()


def host_factor(kernel_times: Iterable[float]) -> float:
    """Scale that maps timings taken next to these kernels to the reference host."""
    return REFERENCE_S / statistics.median(kernel_times)


if __name__ == "__main__":
    # ``python3 perfbench/calibrate.py``: KERNELS_PER_GAP runs, one
    # "wall cpu" pair per line.  run.py times its kernels this way, in a
    # fresh interpreter, so their working set never adds to its peak memory.
    for _ in range(KERNELS_PER_GAP):
        print(*kernel_seconds())
