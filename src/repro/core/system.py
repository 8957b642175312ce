"""The trace-driven Corona system simulator.

This is the reproduction of the paper's network/memory simulator (Section 4):
L2-miss traces are replayed through a request-response on-stack interconnect
transaction plus an off-stack memory transaction, with MSHRs, hubs,
interconnect arbitration and memory modelled with finite buffers, queues and
ports so that bandwidth, latency, back-pressure and capacity limits are
enforced throughout.

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

The replay consumes traces in packed columnar form
(:class:`~repro.trace.packed.PackedTrace`, the only trace representation):
each stage reads plain ints and floats straight out of the trace's flat
columns (one ``uint64`` meta word, one address, one gap per record), so the
hot path allocates no per-record objects at all.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from heapq import heappop, heappush, nsmallest
from typing import Dict, List, Optional

from repro.coherence.engine import CoherenceConfig, CoherenceEngine, CoherentMiss
from repro.core.config import CoronaConfig, CORONA_DEFAULT
from repro.faults.inject import build_injector
from repro.faults.spec import FaultSpec
from repro.core.configs import SystemConfiguration
from repro.core.results import WorkloadResult, nearest_rank
from repro.cores.hub import Hub
from repro.memory.system import MemorySystem
from repro.network.broadcast import OpticalBroadcastBus
from repro.network.message import Message, MessageType
from repro.network.topology import Interconnect, TransferResult
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

    The hot path (:meth:`record`, once per miss) only appends raw samples and
    bumps plain counters; the :class:`RunningStats` accumulators and the
    latency :class:`Histogram` exposed as properties are materialized lazily
    from the samples on first access (and cached until the next record).
    The histogram auto-expands, so its percentiles are order-independent and
    never clamp at the initial 2000 ns range.
    """

    __slots__ = (
        "_samples",
        "_derived",
        "requests",
        "reads",
        "writes",
        "memory_bytes",
        "network_hops",
        "network_messages",
    )

    def __init__(self) -> None:
        #: One (latency, queueing, network, memory) tuple per transaction.
        self._samples: List[tuple] = []
        self._derived: Dict[str, object] = {}
        self.requests = 0
        self.reads = 0
        self.writes = 0
        self.memory_bytes = 0.0
        self.network_hops = 0
        self.network_messages = 0

    def record(
        self,
        latency_s: float,
        queueing_s: float,
        network_s: float,
        memory_s: float,
        is_write: bool,
        memory_bytes: int,
        hops: int,
        messages: int,
    ) -> None:
        if self._derived:
            self._derived.clear()
        self._samples.append((latency_s, queueing_s, network_s, memory_s))
        self.requests += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.memory_bytes += memory_bytes
        self.network_hops += hops
        self.network_messages += messages

    def _running(self, key: str, column: int) -> RunningStats:
        stats = self._derived.get(key)
        if stats is None:
            stats = RunningStats(key)
            stats.extend(sample[column] for sample in self._samples)
            self._derived[key] = stats
        return stats

    @property
    def latency(self) -> RunningStats:
        return self._running("latency", 0)

    @property
    def queueing(self) -> RunningStats:
        return self._running("queueing", 1)

    @property
    def network_latency(self) -> RunningStats:
        return self._running("network-latency", 2)

    @property
    def memory_latency(self) -> RunningStats:
        return self._running("memory-latency", 3)

    @property
    def latency_histogram(self) -> Histogram:
        histogram = self._derived.get("histogram")
        if histogram is None:
            histogram = Histogram(
                "latency-ns", lower=0.0, upper=2000.0, bins=200, auto_expand=True
            )
            add = histogram.add
            for sample in self._samples:
                add(sample[0] * 1e9)
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
    slots instead of touching a record object.
    """

    thread_id: int
    cluster_id: int
    meta: object
    addresses: object
    gaps: object
    base: int
    count: int
    window: int
    next_index: int = 0
    issue_scheduled: bool = False
    #: Issue time of the most recently issued miss (gap accounting).
    last_issue_time: float = 0.0
    #: Open-loop arrival schedule: cumulative sum of the thread's gaps.
    arrival_clock: float = 0.0
    completions: List[Optional[float]] = field(default_factory=list)
    #: The issuing cluster's hub, bound once at replay start.
    hub: Optional[Hub] = None

    def __post_init__(self) -> None:
        self.completions = [None] * self.count

    def finished_issuing(self) -> bool:
        return self.next_index >= self.count


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
        "_push",
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
        "_stage_memory",
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
        network: Optional[Interconnect] = None,
        memory: Optional[MemorySystem] = None,
        window_depth: int = 4,
        mshrs_per_cluster: int = 64,
        hub_queue_depth: int = 64,
        coherence: Optional[CoherenceConfig] = None,
        faults: Optional[FaultSpec] = None,
        observability: Optional[ObservabilitySpec] = None,
    ) -> None:
        if window_depth < 1:
            raise ValueError(f"window depth must be >= 1, got {window_depth}")
        self.configuration = configuration
        self.corona_config = corona_config
        self.network = network or configuration.build_network(corona_config)
        self.memory = memory or configuration.build_memory(corona_config)
        # Fault injection (opt-in, same discipline as coherence below): with
        # ``faults=None`` -- or an all-zero spec -- nothing is installed and
        # the replay is bit-identical to a fault-free build.
        self.fault_spec = faults
        self.fault_injector = build_injector(faults)
        if self.fault_injector is not None:
            self.fault_injector.install(self.network, self.memory)
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
        self._sojourns: Optional[List[float]] = None
        self.window_depth = window_depth
        self.hubs: Dict[int, Hub] = {
            cluster: Hub(
                cluster_id=cluster,
                queue_depth=hub_queue_depth,
                mshrs=mshrs_per_cluster,
            )
            for cluster in range(corona_config.num_clusters)
        }
        self.stats = TransactionStats()
        self._simulator = Simulator()
        self._push = self._simulator._queue.push
        self._equeue = self._simulator._queue
        self._eheap = self._equeue._heap
        # Bound method of the per-run interconnect, re-resolved per call
        # otherwise in the two transfer-issuing handlers.
        self._transfer = self.network.transfer
        self._threads: Dict[int, _ThreadState] = {}
        self._makespan = 0.0
        # Per-record invariants hoisted out of the stage handlers.  Clusters
        # are numbered contiguously from zero, so per-cluster lookups use
        # lists instead of dicts on the hot path.
        self._clock = corona_config.clock_hz
        self._hub_fwd: List[float] = [
            self.hubs[cluster].forwarding_latency_s
            for cluster in range(corona_config.num_clusters)
        ]
        controllers = self.memory.controllers
        if sorted(controllers) == list(range(len(controllers))):
            self._controllers = [controllers[i] for i in range(len(controllers))]
        else:
            self._controllers = controllers
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
            self._stage_memory = self._on_memory_coherent
        else:
            self.broadcast_bus = None
            self.coherence = None
            self._stage_memory = self._on_memory

    # ------------------------------------------------------------------ replay
    def run(self, trace: PackedTrace) -> WorkloadResult:
        """Replay ``trace`` to completion and return the workload result."""
        self._simulator = Simulator()
        self._threads = {}
        self._makespan = 0.0
        # Open-loop replay: the trace's gap column encodes a fixed arrival
        # schedule (the cumulative per-thread gap sum), so misses are
        # timestamped at their scheduled *arrival* instant and sojourn
        # (queueing behind the issue window plus service) is reported
        # alongside the closed-loop latency statistics.
        self._open_loop = trace.arrival_process not in ("", "closed")
        self._offered_rps = trace.offered_rps if self._open_loop else 0.0
        self._sojourns = [] if self._open_loop else None
        # Direct push into the event calendar: every stage time is derived
        # from ``now`` plus non-negative delays, so the schedule_at past-time
        # guard is redundant on this path.  The handlers push heap entries
        # directly (EventQueue.push, inlined).
        self._push = self._simulator._queue.push
        self._equeue = self._simulator._queue
        self._eheap = self._equeue._heap

        clock = self._clock
        gaps = trace.gaps
        for thread_id, cluster_id, start, stop in trace.thread_segments():
            if start == stop:
                continue
            state = _ThreadState(
                thread_id=thread_id,
                cluster_id=cluster_id,
                meta=trace.meta,
                addresses=trace.addresses,
                gaps=gaps,
                base=start,
                count=stop - start,
                window=self.window_depth,
                hub=self.hubs[cluster_id],
            )
            self._threads[thread_id] = state
            first_issue = gaps[start] / clock
            state.issue_scheduled = True
            self._simulator.schedule_at(first_issue, self._on_issue, state)

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
        """Build and install the sampler/recorder on the fresh calendar.

        Runs after the thread states exist (the sampler reads them) and
        before the event loop starts.  Each :meth:`run` call gets fresh
        collectors; the previous run's data is dropped.
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
        gate_index = index - state.window
        if gate_index >= 0:
            gate_completion = state.completions[gate_index]
            if gate_completion is None:
                # The window slot has not freed yet; the completion event of
                # the gating miss will call back into this method.
                return
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
        # MSHR allocation, transcribed from TokenPool.acquire (the reference
        # implementation): expire released tokens, then grant immediately or
        # at the earliest release.
        pool = hub.mshr_pool
        releases = pool._releases
        while releases and releases[0] <= now:
            heappop(releases)
        outstanding = len(releases)
        if outstanding < pool.tokens:
            mshr_grant = now
        else:
            overflow = outstanding - pool.tokens
            if overflow == 0:
                mshr_grant = releases[0]
            else:
                mshr_grant = nsmallest(overflow + 1, releases)[-1]
        pool.acquisitions += 1
        pool.total_wait += mshr_grant - now
        transaction.mshr_wait = mshr_grant - now

        # Injection-queue admission (Hub.inject / BoundedQueue.admit,
        # inlined; reference implementations there).  The departure time is
        # the hub forwarding completion, which is always >= the grant.
        forwarding_latency = hub.forwarding_latency_s
        queue = hub.injection_queue
        departures = queue._departures
        while departures and departures[0] <= mshr_grant:
            heappop(departures)
        resident = len(departures)
        if resident < queue.capacity:
            admitted = mshr_grant
        else:
            overflow = resident - queue.capacity
            if overflow == 0:
                admitted = departures[0]
            else:
                admitted = nsmallest(overflow + 1, departures)[-1]
        departure = mshr_grant + forwarding_latency
        if departure < admitted:
            raise ValueError(
                f"departure {departure} precedes admission {admitted}"
            )
        heappush(departures, departure)
        queue.total_admitted += 1
        if resident + 1 > queue.max_occupancy_seen:
            queue.max_occupancy_seen = resident + 1
        hub.messages_routed += 1
        inject_time = admitted + forwarding_latency
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
            request.transaction_id = self.stats.requests
            result = self._transfer(request, inject_time)
            transaction.request_result = result
            arrival = result.arrival_time

        memory_start = arrival + self._hub_fwd[home]
        equeue = self._equeue
        heappush(
            self._eheap,
            (memory_start, equeue._seq, self._stage_memory, (state, transaction)),
        )
        equeue._seq += 1

        # The next miss of this thread may already be eligible (its window
        # slot may be free and only the compute gap remains).
        self._try_schedule_issue(state)

    def _on_memory(self, state: _ThreadState, transaction: _Transaction) -> None:
        """Stage 2: the memory transaction at the home cluster's controller."""
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
        """Stage 2, coherence-enabled: shared misses consult the home
        cluster's MOESI directory; private misses take the plain memory path.

        The directory resolves the miss's protocol actions analytically
        (invalidation fan-out, cache-to-cache forward, memory access -- see
        :meth:`repro.coherence.engine.CoherenceEngine.process_miss`), and the
        response stage is scheduled at the moment the data supplier may
        answer.  A stripped owner's dirty writeback gets its own calendar
        event so its memory reservation is made in global time order.
        """
        if not transaction.shared:
            self._on_memory(state, transaction)
            return
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

        Mirrors :meth:`_on_response` (same MSHR-release and statistics
        conventions) with three differences: the response source comes from
        the directory's action, the response is data-sized whenever a cache
        line moves (including writes satisfied by a cache-to-cache forward),
        and queueing/network/hop totals include the forward and invalidation
        legs resolved in stage 2.
        """
        now = self._simulator.now
        miss = transaction.coherence
        src = state.cluster_id
        is_write = transaction.is_write
        supplier = miss.response_src

        if supplier == src:
            # Home (or owner) is the requesting cluster: no response leg.
            arrival = now
            rsp_queue = 0.0
            rsp_network = 0.0
            rsp_hops = 0
            rsp_messages = 0
        else:
            if miss.carries_data:
                response = self._msg_read_response
            else:
                response = self._msg_write_ack
            response.src = supplier
            response.dst = src
            response.transaction_id = transaction.index
            response_result = self._transfer(response, now)
            transaction.response_result = response_result
            arrival, rsp_queue, rsp_serial, rsp_prop, rsp_hops, _ = response_result
            rsp_network = rsp_queue + rsp_serial + rsp_prop
            rsp_messages = 1

        if miss.is_c2c:
            self.coherence.note_c2c_complete(miss, arrival)

        request_result = transaction.request_result
        if request_result is None:
            req_queue = 0.0
            req_network = 0.0
            req_hops = 0
            req_messages = 0
        else:
            _, req_queue, req_serial, req_prop, req_hops, _ = request_result
            req_network = req_queue + req_serial + req_prop
            req_messages = 1

        completion_time = arrival + self._hub_fwd[src]
        queueing = (
            transaction.mshr_wait
            + req_queue
            + miss.extra_queueing
            + miss.memory_queueing
            + rsp_queue
        )
        network_latency = req_network + miss.extra_network + rsp_network
        hops = req_hops + miss.extra_hops + rsp_hops
        messages = req_messages + miss.extra_messages + rsp_messages

        # MSHR release (TokenPool.release_at, inlined to a heap push).
        heappush(state.hub.mshr_pool._releases, completion_time)
        state.completions[transaction.index] = completion_time
        if completion_time > self._makespan:
            self._makespan = completion_time

        # TransactionStats.record, inlined (reference implementation there).
        stats = self.stats
        if stats._derived:
            stats._derived.clear()
        stats._samples.append(
            (
                completion_time - transaction.issue_time,
                queueing,
                network_latency,
                transaction.memory_latency,
            )
        )
        stats.requests += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.memory_bytes += transaction.size_bytes
        stats.network_hops += hops
        stats.network_messages += messages

        sojourns = self._sojourns
        if sojourns is not None:
            sojourns.append(completion_time - transaction.arrival_time)

        recorder = self._obs_timeline
        if recorder is not None:
            recorder.record_transaction(state, transaction, now, completion_time)

        self._try_schedule_issue(state)

    def _on_response(self, state: _ThreadState, transaction: _Transaction) -> None:
        """Stages 3+4: the response message returns to the requesting cluster
        and the data (or acknowledgement) reaches the core.

        The response transfer is the last resource reservation of the
        transaction, and it yields the completion time analytically, so the
        completion bookkeeping (MSHR release, window slot, statistics) is
        folded into this handler instead of costing a fourth calendar event:
        the MSHR pool and the issue window both accept future timestamps, and
        the next miss this completion unblocks cannot be eligible before the
        completion time it is gated on.

        MSHR timing note: registering the release here (with the future
        completion time) means a token is visibly held from response
        processing until completion, so acquires in that span can observe
        occupancy.  The previous four-event pipeline registered the release
        *at* completion with the then-current timestamp, which an immediately
        following acquire would expire -- the pool effectively never pushed
        back.  This is a deliberate tightening of the MSHR model; it only
        changes results when a cluster holds more than ``mshrs_per_cluster``
        (64) transactions between response and completion, which no shipped
        workload reaches (threads_per_cluster x window <= 64 throughout).
        """
        now = self._simulator.now
        src = state.cluster_id
        is_write = transaction.is_write
        request_result = transaction.request_result
        if request_result is None:
            # Local miss: no interconnect contribution on either leg.
            completion_time = now + self._hub_fwd[src]
            queueing = transaction.mshr_wait + transaction.memory_queueing
            network_latency = 0.0
            hops = 0
            messages = 0
        else:
            if is_write:
                response = self._msg_write_ack
            else:
                response = self._msg_read_response
            response.src = transaction.home
            response.dst = src
            response.transaction_id = transaction.index
            response_result = self._transfer(response, now)
            transaction.response_result = response_result
            arrival, rsp_queue, rsp_serial, rsp_prop, rsp_hops, _ = response_result
            _, req_queue, req_serial, req_prop, req_hops, _ = request_result
            completion_time = arrival + self._hub_fwd[src]
            queueing = (
                transaction.mshr_wait
                + req_queue
                + transaction.memory_queueing
                + rsp_queue
            )
            network_latency = (
                req_queue + req_serial + req_prop + rsp_queue + rsp_serial + rsp_prop
            )
            hops = req_hops + rsp_hops
            messages = 2

        # MSHR release (TokenPool.release_at, inlined to a heap push).
        heappush(state.hub.mshr_pool._releases, completion_time)
        state.completions[transaction.index] = completion_time
        if completion_time > self._makespan:
            self._makespan = completion_time

        # TransactionStats.record, inlined (reference implementation there).
        stats = self.stats
        if stats._derived:
            stats._derived.clear()
        stats._samples.append(
            (
                completion_time - transaction.issue_time,
                queueing,
                network_latency,
                transaction.memory_latency,
            )
        )
        stats.requests += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.memory_bytes += transaction.size_bytes
        stats.network_hops += hops
        stats.network_messages += messages

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
        static_power = max(
            self.network.static_power_w(), self.configuration.network_static_power_w
        )
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
            network_static_power_w=static_power,
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
