"""The trace-driven Corona system simulator.

This is the reproduction of the paper's network/memory simulator (Section 4):
L2-miss traces are replayed through a request-response on-stack interconnect
transaction plus an off-stack memory transaction, with MSHRs, hubs,
interconnect arbitration and memory modelled with finite buffers, queues and
ports so that bandwidth, latency, back-pressure and capacity limits are
enforced throughout.

Every parameter of a replayed system comes from its
:class:`~repro.core.config.CoronaConfig`: the configuration's factories build
the interconnect and the memory system (DRAM latency included) from it, and
the hubs read ``cluster.l2_mshrs`` and ``cluster.hub_queue_depth``.

The replay is event driven.  Each L2 miss becomes a transaction with four
stages -- issue (MSHR + hub + request message), memory access at the home
cluster, response message, completion -- and each stage is scheduled at the
simulated time at which it actually starts, so every resource reservation
(crossbar token, mesh link, memory channel, DRAM bank) is made in global time
order.  Threads issue their misses in program order subject to their compute
gaps and a bounded window of outstanding misses; this is what converts
interconnect and memory latency into execution time, and execution time for
the fixed number of trace requests is the performance metric behind Figure 8.

Coherence-enabled replay
------------------------
With a :class:`~repro.coherence.engine.CoherenceConfig`, misses to
shared-tagged lines consult the home cluster's MOESI directory
(:mod:`repro.cache.coherence`) in stage 2 instead of going straight to
memory: cache-to-cache forwards, invalidation fan-outs (one optical
broadcast on configurations with the Section 3.2.2 bus, per-sharer unicasts
on the electrical baselines) and dirty writebacks all reserve interconnect
and memory resources.  Shared writes reuse the plain engine's
writeback-sized request message on the issue leg, a deliberate
simplification that keeps the issue stage branch-free.  Without a coherence
config (the default) none of this code is installed and the replay is
bit-identical to the coherence-free engine.

Performance notes
-----------------
The stage handlers execute once per miss and dominate the replay's
wall-clock cost, so everything invariant across records is hoisted out of
them at ``run`` time: the core clock, each cluster's hub and its forwarding
latency, and the home-cluster memory controllers.  Request/response
:class:`Message` objects are preallocated per type and reused (the
interconnect models read but never retain them), and misses homed at the
issuing cluster skip both the message and the :class:`TransferResult`
entirely.

Hoisting stops short of copying shared logic into the handlers: each
resource model has one implementation, which the hot path calls.  Every
busy-interval reservation -- mesh link, memory channel, DRAM bank -- is
:func:`~repro.sim.resources.reserve_interval`; every crossbar grant is
:meth:`TokenChannelArbiter.acquire
<repro.network.arbitration.TokenChannelArbiter.acquire>`; and both response
handlers finish in :meth:`SystemSimulator._complete`, which records through
:meth:`TransactionStats.record`.

Every Python frame on the per-miss path does model work: a replayed miss
is 3 calendar events and about 30.4 Python frames on XBar/OCM Uniform, 40.1
on LMesh/ECM Hot Spot (its extra frames are per-hop reservations), counted
over a 2,000-request run and pinned by
``tests/test_core_system.py::TestHostCostGate``.  The three results built
per miss -- request and response :class:`TransferResult`,
:class:`~repro.memory.controller.MemoryAccessResult` -- are made with
``tuple.__new__(Cls, fields)``, because a ``NamedTuple``'s generated
``__new__`` is a Python function, one frame per result; the object, its
field names and its ``result[i]`` positions are the same.

The evaluation matrix builds a fresh simulator per pair, so construction
and teardown are kept cheap too.  The memory system's 2,048 DRAM banks live
in one flat table per OCM module (:mod:`repro.memory.dram`), and a mesh
shares one route table per shape, builds no routers and keeps one serial
resource per link, so a 64-cluster simulator is about 5,600 (XBar/OCM) to
6,600 (mesh) GC-tracked objects.  A simulator holds no bound method of
itself -- the stage handlers are bound per event, and
:meth:`SystemSimulator._on_memory` hands shared misses to the coherent
handler -- so, unless the opt-in metrics sampler is installed, it is freed
by reference counting as soon as its pair ends instead of waiting for a
full cyclic collection.

A short pair (the quick matrix replays 1,000 requests per pair) spreads its
misses over most of the 1,024 threads, so per-thread and per-sample work
outside the event loop is kept linear and lean as well:
:meth:`SystemSimulator.run` builds each thread's state from positional
arguments and seeds every first issue with one ``heapify``, and the result
statistics fold their sample columns in the local-variable loops of
:meth:`RunningStats.extend <repro.sim.stats.RunningStats.extend>` and
:meth:`Histogram.extend <repro.sim.stats.Histogram.extend>`, so no
per-sample frame or list is made.

A replay keeps little per miss until its simulator is dropped, which sets
how long a trace fits in memory: :class:`TransactionStats` stores only the
latency and queueing columns its result reads, as ``array('d')`` (16 bytes
per miss), open-loop sojourns are one more column, and each thread's
completion times fill a ring of ``window`` slots.  The rest is booking
state -- busy-interval lists and admission heaps -- and
``tests/test_core_system.py::TestRetainedBytesGate`` bounds the total.

The replay consumes traces in packed columnar form
(:class:`~repro.trace.packed.PackedTrace`, the only trace representation):
each stage reads plain ints and floats straight out of the trace's flat
columns (one ``uint64`` meta word, one address, one gap per record), so the
hot path allocates no per-record objects at all.
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass
from heapq import heapify, heappush
from itertools import repeat
from operator import mul
from typing import Dict, List, Optional

from repro.coherence.engine import CoherenceConfig, CoherenceEngine, CoherentMiss
from repro.core.config import CoronaConfig, CORONA_DEFAULT
from repro.faults.inject import build_injector
from repro.faults.spec import FaultSpec
from repro.core.configs import SystemConfiguration
from repro.core.results import WorkloadResult, nearest_rank
from repro.cores.hub import Hub
from repro.network.broadcast import OpticalBroadcastBus
from repro.network.message import Message, MessageType
from repro.network.topology import TransferResult
from repro.obs.metrics import MetricsSampler
from repro.obs.spec import ObservabilitySpec
from repro.obs.timeline import TimelineRecorder
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram, RunningStats
from repro.trace.packed import (
    HOME_MASK,
    HOME_SHIFT,
    KIND_BIT,
    SHARED_BIT,
    SIZE_SHIFT,
    PackedTrace,
)


class TransactionStats:
    """Aggregate statistics over all replayed L2-miss transactions.

    The hot path (:meth:`record`, once per miss) appends latency and
    queueing delay, the two samples a :class:`WorkloadResult` reads, to
    ``array('d')`` columns (16 bytes per miss, exact doubles) and bumps
    plain counters; the :class:`RunningStats` accumulators and the latency
    :class:`Histogram` exposed as properties are folded from the columns on
    first access (and cached until the next record).  The histogram
    auto-expands, so its percentiles are order-independent and never clamp
    at the initial 2000 ns range.
    """

    __slots__ = (
        "_latencies", "_queueing", "_derived", "requests", "memory_bytes", "network_hops"
    )

    def __init__(self) -> None:
        self._latencies = array("d")
        self._queueing = array("d")
        self._derived: Dict[str, object] = {}
        self.requests = 0
        self.memory_bytes = 0.0
        self.network_hops = 0

    def record(
        self, latency_s: float, queueing_s: float, memory_bytes: int, hops: int
    ) -> None:
        if self._derived:
            self._derived.clear()
        self._latencies.append(latency_s)
        self._queueing.append(queueing_s)
        self.requests += 1
        self.memory_bytes += memory_bytes
        self.network_hops += hops

    @property
    def latency_samples(self) -> memoryview:
        """Each transaction's latency in seconds, in completion order: a
        read-only view of the column (the column cannot grow while a view
        of it is alive)."""
        return memoryview(self._latencies).toreadonly()

    def _running(self, key: str, column: array) -> RunningStats:
        stats = self._derived.get(key)
        if stats is None:
            stats = RunningStats(key)
            stats.extend(column)
            self._derived[key] = stats
        return stats

    @property
    def latency(self) -> RunningStats:
        return self._running("latency", self._latencies)

    @property
    def queueing(self) -> RunningStats:
        return self._running("queueing", self._queueing)

    @property
    def latency_histogram(self) -> Histogram:
        histogram = self._derived.get("histogram")
        if histogram is None:
            histogram = Histogram(
                "latency-ns", lower=0.0, upper=2000.0, bins=200, auto_expand=True
            )
            histogram.extend(map(mul, self._latencies, repeat(1e9)))
            self._derived["histogram"] = histogram
        return histogram


# Nearest-rank percentile; shared with the diff engine so percentile deltas
# are computed with exactly the replay's estimator.
_nearest_rank = nearest_rank


class _Transaction:
    """In-flight state of one L2-miss transaction.

    The trace record's fields are decoded from the packed meta word once at
    issue time and carried here as plain scalars; no
    :class:`~repro.trace.record.TraceRecord` object exists during replay.
    ``request_result``/``response_result`` stay ``None`` for misses homed at
    the issuing cluster: a local miss never touches the interconnect, so no
    :class:`TransferResult` is materialized for it.
    """

    __slots__ = (
        "index",
        "issue_time",
        "arrival_time",
        "home",
        "is_write",
        "address",
        "size_bytes",
        "shared",
        "mshr_wait",
        "request_result",
        "memory_queueing",
        "memory_latency",
        "response_result",
        "coherence",
    )

    def __init__(
        self,
        index: int,
        issue_time: float,
        home: int,
        is_write: bool,
        address: int,
        size_bytes: int,
        shared: bool,
    ) -> None:
        self.index = index
        self.issue_time = issue_time
        #: Scheduled arrival instant; equals ``issue_time`` on closed-loop
        #: replays, precedes it when an open-loop arrival queued behind the
        #: issue window (sojourn = completion - arrival).
        self.arrival_time = issue_time
        self.home = home
        self.is_write = is_write
        self.address = address
        self.size_bytes = size_bytes
        self.shared = shared
        self.mshr_wait = 0.0
        self.request_result: Optional[TransferResult] = None
        self.memory_queueing = 0.0
        self.memory_latency = 0.0
        self.response_result: Optional[TransferResult] = None
        #: Resolved coherence activity for shared misses (coherent mode only).
        self.coherence: Optional[CoherentMiss] = None


@dataclass(slots=True)
class _ThreadState:
    """Replay bookkeeping for one hardware thread.

    ``meta``/``addresses``/``gaps`` alias the packed trace's whole columns;
    the thread's records occupy ``[base, base + count)`` and the handlers
    index ``base + next_index`` directly, so issuing a miss reads three flat
    slots instead of touching a record object.  Every field is passed
    positionally (no defaults): :meth:`SystemSimulator.run` builds one per
    thread.

    ``completions`` is a ring of ``window`` slots: the issue gate of miss
    ``i`` reads only slot ``i % window``, the completion of miss
    ``i - window``, and clears it as it passes, for miss ``i`` to fill.
    """

    thread_id: int
    cluster_id: int
    meta: object
    addresses: object
    gaps: object
    base: int
    count: int
    window: int
    #: The issuing cluster's hub, bound once at replay start.
    hub: Hub
    next_index: int
    issue_scheduled: bool
    #: Issue time of the most recently issued miss (gap accounting).
    last_issue_time: float
    #: Open-loop arrival schedule: cumulative sum of the thread's gaps.
    arrival_clock: float
    completions: List[Optional[float]]


class SystemSimulator:
    """Replay a workload trace on one system configuration."""

    __slots__ = (
        "configuration",
        "corona_config",
        "network",
        "memory",
        "window_depth",
        "hubs",
        "stats",
        "_simulator",
        "_equeue",
        "_eheap",
        "_transfer",
        "_threads",
        "_makespan",
        "_clock",
        "_hub_fwd",
        "_controllers",
        "_msg_read_request",
        "_msg_writeback",
        "_msg_read_response",
        "_msg_write_ack",
        "coherence_config",
        "coherence",
        "broadcast_bus",
        "fault_spec",
        "fault_injector",
        "observability",
        "_obs_metrics",
        "_obs_timeline",
        "_open_loop",
        "_offered_rps",
        "_sojourns",
    )

    def __init__(
        self,
        configuration: SystemConfiguration,
        corona_config: CoronaConfig = CORONA_DEFAULT,
        window_depth: int = 4,
        coherence: Optional[CoherenceConfig] = None,
        faults: Optional[FaultSpec] = None,
        observability: Optional[ObservabilitySpec] = None,
    ) -> None:
        if window_depth < 1:
            raise ValueError(f"window depth must be >= 1, got {window_depth}")
        self.configuration = configuration
        self.corona_config = corona_config
        self.network = configuration.build_network(corona_config)
        self.memory = configuration.build_memory(corona_config)
        # Fault injection (opt-in, same discipline as coherence below): with
        # ``faults=None`` -- or an all-zero spec -- nothing is installed and
        # the replay is bit-identical to a fault-free build.
        self.fault_spec = faults
        self.fault_injector = build_injector(faults)
        if self.fault_injector is not None:
            self.fault_injector.install(
                self.network, self.memory, corona_config.crossbar_channel_width_bits
            )
        # Observability (opt-in, same zero-overhead discipline): with
        # ``observability=None`` -- or a spec with no sinks -- neither the
        # sampler nor the recorder is constructed and the stage handlers'
        # hooks stay ``None``.
        self.observability = observability
        self._obs_metrics: Optional[MetricsSampler] = None
        self._obs_timeline: Optional[TimelineRecorder] = None
        # Open-loop replay state, rebound per run() from the trace's arrival
        # metadata.  Closed-loop traces leave all three at their defaults and
        # the replay is bit-identical to builds without this machinery.
        self._open_loop = False
        self._offered_rps = 0.0
        self._sojourns: Optional[array] = None
        self.window_depth = window_depth
        self.hubs: Dict[int, Hub] = {
            cluster: Hub(
                cluster_id=cluster,
                queue_depth=corona_config.cluster.hub_queue_depth,
                mshrs=corona_config.cluster.l2_mshrs,
            )
            for cluster in range(corona_config.num_clusters)
        }
        self.stats = TransactionStats()
        # The calendar the one replay runs on.  Every stage time is derived
        # from ``now`` plus non-negative delays, so the handlers push heap
        # entries directly (EventQueue.push, inlined) without schedule_at's
        # past-time guard.
        self._simulator = Simulator()
        self._equeue = self._simulator._queue
        self._eheap = self._equeue._heap
        # Bound method of the interconnect, re-resolved per call otherwise
        # in the two transfer-issuing handlers.
        self._transfer = self.network.transfer
        #: Per-thread replay state; ``None`` until :meth:`run` starts.
        self._threads: Optional[Dict[int, _ThreadState]] = None
        self._makespan = 0.0
        # Per-record invariants hoisted out of the stage handlers.  Clusters
        # and memory controllers are numbered contiguously from zero, so
        # per-cluster lookups use lists instead of dicts on the hot path.
        self._clock = corona_config.clock_hz
        self._hub_fwd: List[float] = [
            self.hubs[cluster].forwarding_latency_s
            for cluster in range(corona_config.num_clusters)
        ]
        self._controllers = list(self.memory.controllers.values())
        # Reusable request/response messages, one per type.  The interconnect
        # models read src/dst/size and record counters but never retain the
        # message, so mutating these in place is safe and avoids two dataclass
        # constructions per remote miss.
        self._msg_read_request = Message(0, 1, MessageType.READ_REQUEST)
        self._msg_writeback = Message(0, 1, MessageType.WRITEBACK)
        self._msg_read_response = Message(0, 1, MessageType.READ_RESPONSE)
        self._msg_write_ack = Message(0, 1, MessageType.WRITE_ACK)
        # Coherence subsystem (opt-in).  With ``coherence=None`` the replay
        # is the plain engine: the coherent handlers are never installed, so
        # results and throughput are untouched.  With a config, shared-tagged
        # records consult their home directory and the protocol's messages
        # reserve interconnect/memory resources; invalidations ride the
        # optical broadcast bus on configurations that carry one.
        self.coherence_config = coherence
        if coherence is not None:
            self.broadcast_bus = (
                OpticalBroadcastBus(
                    num_clusters=corona_config.num_clusters,
                    clock_hz=corona_config.clock_hz,
                    wavelengths=corona_config.crossbar_wavelengths_per_waveguide,
                    bit_rate_per_wavelength_bps=corona_config.signalling_rate_bps,
                    ring_round_trip_cycles=corona_config.token_ring_round_trip_cycles,
                )
                if configuration.has_broadcast_bus
                else None
            )
            self.coherence = CoherenceEngine(
                config=coherence,
                num_clusters=corona_config.num_clusters,
                network=self.network,
                controllers=self._controllers,
                hub_fwd=self._hub_fwd,
                broadcast_bus=self.broadcast_bus,
            )
        else:
            self.broadcast_bus = None
            self.coherence = None

    # ------------------------------------------------------------------ replay
    def run(self, trace: PackedTrace) -> WorkloadResult:
        """Replay ``trace`` to completion and return the workload result.

        A simulator replays once: its statistics, hubs, interconnect and
        memory keep the replay's bookings, so a second call raises
        :class:`RuntimeError` instead of returning results skewed by the
        first.  Build a new simulator for each replay.
        """
        if self._threads is not None:
            raise RuntimeError(
                "this SystemSimulator has already replayed a trace; its "
                "statistics and resources keep that replay's bookings, so "
                "build a new SystemSimulator for each run"
            )
        self._threads = {}
        # Open-loop replay: the trace's gap column encodes a fixed arrival
        # schedule (the cumulative per-thread gap sum), so misses are
        # timestamped at their scheduled *arrival* instant and sojourn
        # (queueing behind the issue window plus service) is reported
        # alongside the closed-loop latency statistics.
        self._open_loop = trace.arrival_process not in ("", "closed")
        self._offered_rps = trace.offered_rps if self._open_loop else 0.0
        self._sojourns = array("d") if self._open_loop else None

        # Seed every thread's first issue in one heapify rather than one
        # push each.  The (time, seq) keys are unique, so the calendar pops
        # them in the order per-thread pushes would have.
        clock = self._clock
        meta, addresses, gaps = trace.meta, trace.addresses, trace.gaps
        window = self.window_depth
        on_issue = self._on_issue
        heap = self._eheap
        for thread_id, cluster_id, start, stop in trace.thread_segments():
            if start == stop:
                continue
            count = stop - start
            # The last five: next_index, issue_scheduled (the seed below),
            # last_issue_time, arrival_clock, completions.
            state = _ThreadState(
                thread_id, cluster_id, meta, addresses, gaps, start, count,
                window, self.hubs[cluster_id],
                0, True, 0.0, 0.0, [None] * window,
            )
            self._threads[thread_id] = state
            first_issue = gaps[start] / clock
            if first_issue < 0.0:
                raise ValueError(
                    f"thread {thread_id} would first issue at t={first_issue}, "
                    "before the replay starts"
                )
            heap.append((first_issue, len(heap), on_issue, (state,)))
        heapify(heap)
        # Later pushes, the metrics sampler's first tick included, number on.
        self._equeue._seq = len(heap)

        observability = self.observability
        if observability is not None and observability.simulation_active:
            self._install_observability(observability)

        # The replay allocates heavily (events, transactions, results) but
        # creates no reference cycles, so the cyclic collector only adds
        # overhead; pause it for the duration of the event loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._simulator.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._build_result(trace, self._makespan)

    def _install_observability(self, spec: ObservabilitySpec) -> None:
        """Build and install the sampler/recorder on the calendar.

        Runs after the thread states exist (the sampler reads them) and
        before the event loop starts.  A simulator replays once, so the
        collectors hold exactly that replay's data.
        """
        recorder = None
        if spec.timeline_enabled:
            recorder = TimelineRecorder(
                hub_fwd=self._hub_fwd, limit=spec.timeline_limit
            )
            injector = self.fault_injector
            if injector is not None:
                simulator = self._simulator
                injector.on_fault = (
                    lambda kind, site, delay_s: recorder.fault_event(
                        simulator.now, kind, site, delay_s
                    )
                )
        self._obs_timeline = recorder
        if spec.metrics_enabled:
            sampler = MetricsSampler(
                self,
                interval_ns=spec.metrics_interval_ns,
                counter_sink=recorder.counter if recorder is not None else None,
            )
            sampler.install(self._simulator)
            self._obs_metrics = sampler
        else:
            self._obs_metrics = None

    # --------------------------------------------------------------- scheduling
    def _try_schedule_issue(self, state: _ThreadState) -> None:
        """Schedule the thread's next miss if its gap and window allow it."""
        if state.issue_scheduled:
            return
        index = state.next_index
        if index >= state.count:
            return
        if self._open_loop:
            # Fixed arrival schedule: the next miss arrives one gap after the
            # previous *arrival*, regardless of when the replay issued it, so
            # queueing accumulates when the system falls behind the load.
            gap_ready = (
                state.arrival_clock + state.gaps[state.base + index] / self._clock
            )
        else:
            gap_ready = (
                state.last_issue_time + state.gaps[state.base + index] / self._clock
            )
        window = state.window
        if index >= window:
            completions = state.completions
            slot = index % window
            gate_completion = completions[slot]
            if gate_completion is None:
                # The window slot has not freed yet; the completion event of
                # the gating miss will call back into this method.
                return
            completions[slot] = None
            issue_time = gap_ready if gap_ready > gate_completion else gate_completion
        else:
            issue_time = gap_ready
        now = self._simulator.now
        if issue_time < now:
            issue_time = now
        state.issue_scheduled = True
        equeue = self._equeue
        heappush(self._eheap, (issue_time, equeue._seq, self._on_issue, (state,)))
        equeue._seq += 1

    # ------------------------------------------------------------ stage handlers
    def _on_issue(self, state: _ThreadState) -> None:
        """Stage 1: the miss leaves the core, allocates an MSHR, and the
        request message crosses the interconnect to the home cluster.

        The miss's fields are decoded inline from its packed meta word
        (kind/shared bits, home cluster, size) plus the address column; this
        is the only place the trace is read, so the whole replay allocates
        one :class:`_Transaction` and zero record objects per miss.
        """
        simulator = self._simulator
        now = simulator.now
        state.issue_scheduled = False
        index = state.next_index
        slot = state.base + index
        word = state.meta[slot]
        state.last_issue_time = now
        state.next_index = index + 1

        home = (word >> HOME_SHIFT) & HOME_MASK
        is_write = bool(word & KIND_BIT)
        transaction = _Transaction(
            index,
            now,
            home,
            is_write,
            state.addresses[slot],
            word >> SIZE_SHIFT,
            bool(word & SHARED_BIT),
        )
        if self._open_loop:
            arrival_instant = state.arrival_clock + state.gaps[slot] / self._clock
            state.arrival_clock = arrival_instant
            transaction.arrival_time = arrival_instant
        hub = state.hub
        # MSHR allocation; the token's release is booked at completion.
        mshr_grant = hub.mshr_pool.acquire(now)
        transaction.mshr_wait = mshr_grant - now
        # Injection-queue admission: the message holds its slot until the
        # hub has forwarded it, and leaves the hub one forwarding latency
        # after admission.
        forwarding = hub.forwarding_latency_s
        inject_time = (
            hub.injection_queue.admit(mshr_grant, mshr_grant + forwarding)
            + forwarding
        )
        if state.cluster_id == home:
            # Local miss: the hub hands it straight to the cluster's own
            # memory controller without touching the interconnect; no message
            # or transfer result is materialized.
            arrival = inject_time
        else:
            if is_write:
                request = self._msg_writeback
            else:
                request = self._msg_read_request
            request.src = state.cluster_id
            request.dst = home
            result = self._transfer(request, inject_time)
            transaction.request_result = result
            arrival = result.arrival_time

        memory_start = arrival + self._hub_fwd[home]
        equeue = self._equeue
        heappush(
            self._eheap,
            (memory_start, equeue._seq, self._on_memory, (state, transaction)),
        )
        equeue._seq += 1

        # The next miss of this thread may already be eligible (its window
        # slot may be free and only the compute gap remains).
        self._try_schedule_issue(state)

    def _on_memory(self, state: _ThreadState, transaction: _Transaction) -> None:
        """Stage 2: the memory transaction at the home cluster's controller.

        With coherence enabled, a shared miss goes to
        :meth:`_on_memory_coherent` instead.
        """
        if transaction.shared and self.coherence is not None:
            self._on_memory_coherent(state, transaction)
            return
        home = transaction.home
        completion, mem_queueing, channel_delay, dram_delay = self._controllers[
            home
        ].access(
            self._simulator.now,
            transaction.size_bytes,
            transaction.is_write,
            transaction.address,
        )
        transaction.memory_queueing = mem_queueing
        transaction.memory_latency = mem_queueing + channel_delay + dram_delay
        response_start = completion + self._hub_fwd[home]
        equeue = self._equeue
        heappush(
            self._eheap,
            (response_start, equeue._seq, self._on_response, (state, transaction)),
        )
        equeue._seq += 1

    def _on_memory_coherent(
        self, state: _ThreadState, transaction: _Transaction
    ) -> None:
        """Stage 2 of a shared miss with coherence enabled: consult the
        home cluster's MOESI directory.

        The directory resolves the miss's protocol actions analytically
        (invalidation fan-out, cache-to-cache forward, memory access -- see
        :meth:`repro.coherence.engine.CoherenceEngine.process_miss`), and the
        response stage is scheduled at the moment the data supplier may
        answer.  A stripped owner's dirty writeback gets its own calendar
        event so its memory reservation is made in global time order.
        """
        miss = self.coherence.process_miss(
            home=transaction.home,
            requester=state.cluster_id,
            is_write=transaction.is_write,
            address=transaction.address,
            size_bytes=transaction.size_bytes,
            now=self._simulator.now,
        )
        transaction.coherence = miss
        transaction.memory_queueing = miss.memory_queueing
        transaction.memory_latency = miss.memory_latency
        equeue = self._equeue
        if miss.writeback_time is not None:
            heappush(
                self._eheap,
                (
                    miss.writeback_time,
                    equeue._seq,
                    self._on_dirty_writeback,
                    (transaction,),
                ),
            )
            equeue._seq += 1
        response_start = miss.response_ready + self._hub_fwd[miss.response_src]
        heappush(
            self._eheap,
            (response_start, equeue._seq, self._on_response_coherent, (state, transaction)),
        )
        equeue._seq += 1

    def _on_dirty_writeback(self, transaction: _Transaction) -> None:
        """A stripped owner's dirty line arrives at the home memory controller."""
        self.coherence.complete_writeback(
            transaction.home,
            transaction.size_bytes,
            transaction.address,
            self._simulator.now,
        )

    def _on_response_coherent(
        self, state: _ThreadState, transaction: _Transaction
    ) -> None:
        """Stages 3+4 for a shared miss: the data supplier (remote owner for
        cache-to-cache transfers, otherwise the home cluster) answers the
        requester, and completion folds in the coherence legs' costs.

        Differs from :meth:`_on_response` in three ways, and ends in the
        same :meth:`_complete`: the response source comes from the
        directory's action, the response is data-sized whenever a cache line
        moves (including writes satisfied by a cache-to-cache forward), and
        queueing and hop totals include the forward and invalidation legs
        resolved in stage 2.
        """
        now = self._simulator.now
        miss = transaction.coherence
        src = state.cluster_id
        supplier = miss.response_src

        if supplier == src:
            # Home (or owner) is the requesting cluster: no response leg.
            arrival = now
            rsp_queue = 0.0
            rsp_hops = 0
        else:
            if miss.carries_data:
                response = self._msg_read_response
            else:
                response = self._msg_write_ack
            response.src = supplier
            response.dst = src
            response_result = self._transfer(response, now)
            transaction.response_result = response_result
            arrival, rsp_queue, _, _, rsp_hops, _ = response_result

        if miss.is_c2c:
            self.coherence.note_c2c_complete(miss, arrival)

        request_result = transaction.request_result
        if request_result is None:
            req_queue = 0.0
            req_hops = 0
        else:
            _, req_queue, _, _, req_hops, _ = request_result

        completion_time = arrival + self._hub_fwd[src]
        queueing = (
            transaction.mshr_wait
            + req_queue
            + miss.extra_queueing
            + miss.memory_queueing
            + rsp_queue
        )
        hops = req_hops + miss.extra_hops + rsp_hops
        self._complete(state, transaction, now, completion_time, queueing, hops)

    def _on_response(self, state: _ThreadState, transaction: _Transaction) -> None:
        """Stages 3+4: the response message returns to the requesting cluster
        and the data (or acknowledgement) reaches the core.

        The response transfer is the last resource reservation of the
        transaction, and it yields the completion time analytically, so the
        completion bookkeeping (:meth:`_complete`: MSHR release, window slot,
        statistics) runs in this handler instead of costing a fourth
        calendar event: the MSHR pool and the issue window both accept
        future timestamps, and the next miss this completion unblocks cannot
        be eligible before the completion time it is gated on.

        MSHR timing note: registering the release here (with the future
        completion time) means a token is visibly held from response
        processing until completion, so acquires in that span can observe
        occupancy.  The previous four-event pipeline registered the release
        *at* completion with the then-current timestamp, which an immediately
        following acquire would expire -- the pool effectively never pushed
        back.  This is a deliberate tightening of the MSHR model; it changes
        results whenever a cluster holds more than ``cluster.l2_mshrs``
        (64) transactions between response and completion.  Shipped
        workloads do: 16 threads per cluster with a window of 8 allow 128
        outstanding misses, and at the quick tier's 12,000 requests (seed 1)
        hubs wait for an MSHR on every mesh configuration under some
        synthetic pattern -- all 64 hubs for Uniform on LMesh/OCM -- and 30
        of 64 for coherent Uniform on LMesh/ECM with half its misses
        shared.  No XBar/OCM hub waited under any synthetic pattern.
        """
        now = self._simulator.now
        src = state.cluster_id
        request_result = transaction.request_result
        if request_result is None:
            # Local miss: no interconnect contribution on either leg.
            completion_time = now + self._hub_fwd[src]
            queueing = transaction.mshr_wait + transaction.memory_queueing
            hops = 0
        else:
            if transaction.is_write:
                response = self._msg_write_ack
            else:
                response = self._msg_read_response
            response.src = transaction.home
            response.dst = src
            response_result = self._transfer(response, now)
            transaction.response_result = response_result
            arrival, rsp_queue, _, _, rsp_hops, _ = response_result
            _, req_queue, _, _, req_hops, _ = request_result
            completion_time = arrival + self._hub_fwd[src]
            queueing = (
                transaction.mshr_wait
                + req_queue
                + transaction.memory_queueing
                + rsp_queue
            )
            hops = req_hops + rsp_hops
        self._complete(state, transaction, now, completion_time, queueing, hops)

    def _complete(
        self,
        state: _ThreadState,
        transaction: _Transaction,
        now: float,
        completion_time: float,
        queueing: float,
        hops: int,
    ) -> None:
        """Stage 4, shared by both response handlers: the transaction
        completes at ``completion_time``.  Books the MSHR release, fills the
        miss's window slot, and records the transaction's statistics,
        sojourn and timeline spans."""
        state.hub.mshr_pool.release_at(completion_time)
        state.completions[transaction.index % state.window] = completion_time
        if completion_time > self._makespan:
            self._makespan = completion_time
        self.stats.record(
            completion_time - transaction.issue_time,
            queueing,
            transaction.size_bytes,
            hops,
        )

        sojourns = self._sojourns
        if sojourns is not None:
            sojourns.append(completion_time - transaction.arrival_time)

        recorder = self._obs_timeline
        if recorder is not None:
            recorder.record_transaction(state, transaction, now, completion_time)

        # This completion may free the window slot the thread's next miss is
        # waiting for.
        self._try_schedule_issue(state)

    # ------------------------------------------------------------- result assembly
    def _build_result(self, trace: PackedTrace, makespan: float) -> WorkloadResult:
        elapsed = max(makespan, 1e-12)
        dynamic_power = self.network.dynamic_power_w(elapsed)
        token_wait = 0.0
        arbiter = getattr(self.network, "arbiter", None)
        if arbiter is not None and hasattr(arbiter, "average_wait_s"):
            token_wait = arbiter.average_wait_s()
        coherence = self.coherence
        if coherence is not None:
            cstats = coherence.stats
            coherence_fields = dict(
                coherence_enabled=True,
                shared_requests=cstats.shared_requests,
                invalidations_sent=cstats.invalidations_sent,
                invalidation_broadcasts=cstats.broadcasts_used,
                invalidation_unicasts=cstats.unicast_invalidations,
                average_invalidation_latency_s=cstats.invalidation_latency.mean,
                cache_to_cache_transfers=cstats.c2c_transfers,
                average_cache_to_cache_latency_s=cstats.c2c_latency.mean,
                dirty_writebacks=cstats.dirty_writebacks,
                broadcast_occupancy=coherence.broadcast_occupancy(elapsed),
            )
        else:
            coherence_fields = {}
        injector = self.fault_injector
        if injector is not None:
            fstats = injector.stats
            fault_fields = dict(
                faults_enabled=True,
                fault_wavelengths_disabled=fstats.wavelengths_disabled,
                fault_links_degraded=fstats.links_degraded,
                fault_tokens_lost=fstats.tokens_lost,
                fault_token_regen_wait_s=fstats.token_regen_wait_s,
                fault_dram_timeouts=fstats.dram_timeouts,
                fault_dram_retry_s=fstats.dram_retry_s,
            )
        else:
            fault_fields = {}
        if self._open_loop and self._sojourns is not None:
            # Realized offered load: requests over the arrival-schedule span
            # (the slowest thread's final arrival).  Dividing achieved by
            # this is exactly the schedule-slip ratio -- it only drops below
            # one when the replay finished later than the arrivals did -- so
            # saturation detection is immune to the finite-trace tail bias
            # of the nominal process rate.
            arrival_span = max(
                (state.arrival_clock for state in self._threads.values()),
                default=0.0,
            )
            offered = (
                self.stats.requests / arrival_span
                if arrival_span > 0.0
                else self._offered_rps
            )
            achieved = self.stats.requests / elapsed
            ordered = sorted(self._sojourns)
            arrival_fields = dict(
                offered_rps=offered,
                achieved_rps=achieved,
                saturated=offered > 0.0 and achieved < 0.95 * offered,
                p50_sojourn_ns=_nearest_rank(ordered, 0.50) * 1e9,
                p95_sojourn_ns=_nearest_rank(ordered, 0.95) * 1e9,
                p99_sojourn_ns=_nearest_rank(ordered, 0.99) * 1e9,
            )
        else:
            arrival_fields = {}
        return WorkloadResult(
            workload=trace.name,
            configuration=self.configuration.name,
            num_requests=self.stats.requests,
            execution_time_s=makespan,
            achieved_bandwidth_bytes_per_s=self.stats.memory_bytes / elapsed,
            average_latency_s=self.stats.latency.mean,
            p99_latency_s=self.stats.latency_histogram.percentile(0.99) * 1e-9,
            network_dynamic_power_w=dynamic_power,
            network_static_power_w=self.network.static_power_w(),
            network_energy_j=self.network.total_dynamic_energy_j,
            network_messages=self.network.messages_sent,
            network_hops=self.stats.network_hops,
            memory_bytes=self.stats.memory_bytes,
            average_token_wait_s=token_wait,
            average_queueing_delay_s=self.stats.queueing.mean,
            is_synthetic="splash" not in trace.description.lower(),
            **coherence_fields,
            **fault_fields,
            **arrival_fields,
        )


def simulate_workload(
    configuration: SystemConfiguration,
    workload,
    num_requests: Optional[int] = None,
    seed: int = 1,
    corona_config: CoronaConfig = CORONA_DEFAULT,
    window_depth: Optional[int] = None,
    coherence: Optional[CoherenceConfig] = None,
    faults: Optional[FaultSpec] = None,
    observability: Optional[ObservabilitySpec] = None,
) -> WorkloadResult:
    """Convenience wrapper: generate a workload's trace and replay it.

    ``workload`` is any object with ``generate_packed(seed, num_requests)``
    and a ``window`` attribute (both synthetic and SPLASH-2 workloads
    qualify).  Pass a :class:`~repro.coherence.engine.CoherenceConfig` to
    enable the timed MOESI directory for shared-tagged records, and/or a
    :class:`~repro.faults.spec.FaultSpec` to replay on deterministically
    degraded hardware.
    """
    trace = workload.generate_packed(seed=seed, num_requests=num_requests)
    depth = window_depth if window_depth is not None else getattr(workload, "window", 4)
    simulator = SystemSimulator(
        configuration=configuration,
        corona_config=corona_config,
        window_depth=depth,
        coherence=coherence,
        faults=faults,
        observability=observability,
    )
    return simulator.run(trace)
