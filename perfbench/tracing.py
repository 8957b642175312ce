"""Span recording around the program's layer entry points, from outside.

A :class:`Tracer` replaces the layer entry points *at class level* for the
duration of a ``with`` block and restores them afterwards.  Class level is
the only place a wrapper can go: ``MemoryController`` is a ``slots=True``
dataclass (no per-instance attributes), and ``SystemSimulator`` binds
``network.transfer`` when it is constructed -- so the tracer must be
entered *before* any simulator of the traced run is built.

Each wrapped call records one span ``(name, start, end, parent)`` in memory;
:func:`write_spans` writes them out once the run has ended.  Wrappers run in
this process only: spawned or forked worker processes replay untraced.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.engine import CoherenceEngine
from repro.core.system import SystemSimulator
from repro.memory.controller import MemoryController
from repro.network import broadcast, crossbar, mesh  # noqa: F401  (registers subclasses)
from repro.network.topology import Interconnect
from repro.sim.engine import Simulator
from repro.trace.splash2 import Splash2Workload
from repro.trace.synthetic import SyntheticWorkload

#: Span names, in the order their index is stored in a span tuple.
SPAN_NAMES = (
    "replay",
    "sim.run",
    "network.transfer",
    "network.multicast",
    "memory.access",
    "coherence.process_miss",
    "coherence.writeback",
    "trace.generate",
)
_CODE = {name: code for code, name in enumerate(SPAN_NAMES)}
_LAYER = tuple(name.split(".")[0] for name in SPAN_NAMES)

#: One recorded call: (name code, start, end, parent span index or -1).
Span = Tuple[int, float, float, int]


def _network_classes() -> List[type]:
    """Every loaded concrete ``Interconnect`` subclass (depth first)."""
    found, pending = [], list(Interconnect.__subclasses__())
    while pending:
        cls = pending.pop(0)
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Tracer:
    """Records spans and work counts while installed (``with Tracer() as t``)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[type, str, object]] = []
        #: Work counts the spans alone do not carry.
        self.events = 0
        self.admission_waits = 0
        self.memory_queueing_s = 0.0
        self.mshr_wait_s = 0.0
        self.mshr_acquisitions = 0
        self.max_occupancy = 0
        self.queue_capacity = 0
        #: Trace name -> records generated (the last generation wins).
        self.records: Dict[str, int] = {}

    # -- installation ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self._wrap(SystemSimulator, "run", "replay", self._after_replay)
        self._wrap(Simulator, "run", "sim.run", self._after_calendar)
        for cls in _network_classes():
            for attr in ("transfer", "multicast"):
                method = cls.__dict__.get(attr)
                if method is not None and not getattr(
                    method, "__isabstractmethod__", False
                ):
                    self._wrap(cls, attr, f"network.{attr}")
        self._wrap(Interconnect, "multicast", "network.multicast")
        self._wrap(MemoryController, "access", "memory.access", self._after_access)
        self._wrap(CoherenceEngine, "process_miss", "coherence.process_miss")
        self._wrap(CoherenceEngine, "complete_writeback", "coherence.writeback")
        for cls in (SyntheticWorkload, Splash2Workload):
            self._wrap(cls, "generate_packed", "trace.generate", self._after_generate)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        original = owner.__dict__[attr]
        code = _CODE[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (code, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- counters read at the boundaries --------------------------------------
    def _after_replay(self, args: tuple, _result) -> None:
        simulator = args[0]
        for hub in simulator.hubs.values():
            self.mshr_wait_s += hub.mshr_pool.total_wait
            self.mshr_acquisitions += hub.mshr_pool.acquisitions
        for controller in simulator.memory.controllers.values():
            queue = controller.queue
            self.max_occupancy = max(self.max_occupancy, queue.max_occupancy_seen)
            self.queue_capacity = max(self.queue_capacity, queue.capacity)

    def _after_calendar(self, args: tuple, _result) -> None:
        self.events += args[0].events_executed

    def _after_access(self, _args: tuple, result) -> None:
        queue_wait = result[1]
        if queue_wait > 0.0:
            self.admission_waits += 1
            self.memory_queueing_s += queue_wait

    def _after_generate(self, args: tuple, result) -> None:
        self.records[args[0].name] = len(result)

    # -- aggregation ----------------------------------------------------------
    def layer_times(self) -> Dict[str, float]:
        """Host seconds and call counts per layer entry point.

        Network and memory times are inclusive; coherence times are self
        times (minus the network and memory calls they make), so network +
        memory + coherence is exactly the time ``Simulator.run`` spent below
        itself and ``core.self_s`` is the rest of ``sim.run_s``: the issue
        and response stages plus the calendar's own work.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for _code, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        seconds = {name: 0.0 for name in SPAN_NAMES}
        calls = {name: 0 for name in SPAN_NAMES}
        below_calendar = 0.0
        for index, (code, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[SPAN_NAMES[code]] += 1
            parent_code = spans[parent][0] if parent >= 0 else -1
            if parent_code == _CODE["sim.run"]:
                below_calendar += duration
            layer = _LAYER[code]
            if parent_code >= 0 and layer == "network" == _LAYER[parent_code]:
                continue  # a transfer inside a multicast: counted there
            if layer == "coherence":
                duration -= child_s[index]
            seconds[SPAN_NAMES[code]] += duration
        seconds["core.self"] = seconds["sim.run"] - below_calendar
        return {
            **{f"{name}_s": value for name, value in seconds.items()},
            **{f"{name}_calls": value for name, value in calls.items()},
        }


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the recorded spans (gzip JSON, ns relative to the first start)."""
    spans = tracer.spans
    origin = min((span[1] for span in spans), default=0.0)
    payload = {
        "format": "perfbench-spans/1",
        "names": list(SPAN_NAMES),
        "columns": ["name", "start_ns", "end_ns", "parent"],
        "spans": [
            [code, round((start - origin) * 1e9), round((end - origin) * 1e9), parent]
            for code, start, end, parent in spans
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        json.dump(payload, handle, separators=(",", ":"))
