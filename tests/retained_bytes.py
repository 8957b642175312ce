"""Retained bytes per replayed miss: the measure behind
``tests/test_core_system.py::TestRetainedBytesGate``.

:func:`retained_bytes_per_miss` replays one pair at 2,000 and at 8,000
requests (seed 1) under :mod:`tracemalloc` and divides the difference of the
traced memory still held after :meth:`SystemSimulator.run
<repro.core.system.SystemSimulator.run>` by 6,000.  Each trace is generated
before tracing starts, so the 24 B per record of the packed trace do not
count; what counts is every byte the replay keeps until its simulator is
dropped: latency samples, completion times, busy-interval lists.  A short
untraced replay of the same pair runs first, so module-level caches (the
mesh route tables) are built before either measurement instead of counting
in whichever comes first.

The module needs no pytest, so the gate's numbers can be re-measured on any
supported interpreter from the repository root::

    PYTHONPATH=src python -m tests.retained_bytes
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import List, Tuple

from repro.api import build_workload
from repro.core.configs import configuration_by_name
from repro.core.system import SystemSimulator

#: The two pairs the gate measures: the crossbar path, and the mesh path
#: with its per-hop link reservations.
PAIRS = (("XBar/OCM", "Uniform"), ("LMesh/ECM", "Hot Spot"))
SHORT = 2_000
LONG = 8_000


def _retained_after_run(
    configuration: str, workload_name: str, requests: int
) -> Tuple[int, tracemalloc.Snapshot]:
    workload = build_workload(workload_name)
    trace = workload.generate_packed(seed=1, num_requests=requests)
    gc.collect()
    tracemalloc.start()
    try:
        simulator = SystemSimulator(
            configuration_by_name(configuration), window_depth=workload.window
        )
        simulator.run(trace)
        current, _ = tracemalloc.get_traced_memory()
        return current, tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()


def retained_bytes_per_miss(
    configuration: str, workload_name: str, sites: int = 5
) -> Tuple[float, List[str]]:
    """``(bytes, top_sites)``: traced bytes the replay of ``configuration`` x
    ``workload_name`` retains per extra miss between :data:`SHORT` and
    :data:`LONG` requests, and the ``sites`` source lines whose retained
    bytes grew the most, each with its growth per miss."""
    _retained_after_run(configuration, workload_name, 200)
    short, short_snapshot = _retained_after_run(configuration, workload_name, SHORT)
    long, long_snapshot = _retained_after_run(configuration, workload_name, LONG)
    extra = LONG - SHORT
    top = [
        f"{'/'.join(stat.traceback[0].filename.rsplit('/', 2)[-2:])}:"
        f"{stat.traceback[0].lineno} {stat.size_diff / extra:+.1f} B"
        for stat in long_snapshot.compare_to(short_snapshot, "lineno")[:sites]
    ]
    return (long - short) / extra, top


if __name__ == "__main__":
    for configuration, workload_name in PAIRS:
        per_miss, top = retained_bytes_per_miss(configuration, workload_name)
        print(f"{configuration} {workload_name}: {per_miss:.1f} B per miss")
        for site in top:
            print(f"    {site}")
