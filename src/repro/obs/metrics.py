"""Simulated-time resource metrics: the sampler of the observability layer.

A :class:`MetricsSampler` rides the replay's event calendar: it schedules
itself every ``metrics_interval_ns`` of *simulated* time and snapshots the
system's resource state into long-form rows ``(time_ns, resource, metric,
value)``.  It reads counters the simulators already maintain (crossbar
channel bytes, mesh link busy time, DRAM queues, MSHR pools, transaction
counts) without mutating any of them, so an enabled sampler changes no
replay result -- and a disabled one is simply never constructed, keeping
the hot path untouched.

The sampler stops itself: when its tick finds the calendar otherwise empty
the replay is over, it takes a final sample and does not reschedule, so it
never keeps the event loop alive on its own.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: Long-form row: (time_ns, resource, metric, value).
MetricRow = Tuple[float, str, str, float]

#: CSV column order of the long-form sink (pair labels are prepended by the
#: artifact writer).
METRIC_COLUMNS = ("time_ns", "resource", "metric", "value")

#: Gauge metrics forwarded to the timeline as Chrome counter tracks.
_COUNTER_METRICS = frozenset(
    {
        "utilization",
        "queue_depth",
        "in_use",
        "in_flight",
        "active",
        "offered_rps",
        "achieved_rps",
        # Coherence traffic counters (cumulative; step tracks in Perfetto).
        "directory_lookups",
        "c2c_forwards",
        "invalidations_sent",
        "invalidation_broadcasts",
        "invalidation_unicasts",
        "writebacks",
    }
)


class MetricsSampler:
    """Samples one :class:`~repro.core.system.SystemSimulator`'s resources.

    Built per replay (its deltas are per-run) and installed by the system
    simulator after the event calendar and thread states exist.  All reads
    are non-mutating (``BoundedQueue.occupancy`` and ``TokenPool.in_use``
    expire nothing), so sampling perturbs nothing.
    """

    __slots__ = (
        "interval_s",
        "rows",
        "counter_sink",
        "_system",
        "_simulator",
        "_prev",
        "_prev_channel_bytes",
        "_last_now",
    )

    def __init__(
        self,
        system,
        interval_ns: float,
        counter_sink: Optional[Callable[[float, str, float], None]] = None,
    ) -> None:
        self.interval_s = interval_ns * 1e-9
        self.rows: List[MetricRow] = []
        self.counter_sink = counter_sink
        self._system = system
        self._simulator = None
        self._prev: Dict[str, float] = {}
        self._prev_channel_bytes: Dict[int, float] = {}
        self._last_now = 0.0

    # -- calendar integration ------------------------------------------------
    def install(self, simulator) -> None:
        """Schedule the first tick at t=0 on the (fresh) event calendar."""
        self._simulator = simulator
        simulator.schedule_at(0.0, self._tick)

    def _tick(self) -> None:
        simulator = self._simulator
        now = simulator.now
        self.sample(now)
        self._last_now = now
        # The tick's own entry is already popped: a non-empty calendar means
        # the replay is still producing events, so keep sampling; an empty
        # one means this was the final sample.
        if simulator.pending_events() > 0:
            simulator.schedule_at(now + self.interval_s, self._tick)

    # -- sampling ------------------------------------------------------------
    def _delta(self, key: str, value: float) -> float:
        previous = self._prev.get(key, 0.0)
        self._prev[key] = value
        return value - previous

    def _add(self, rows: list, t_ns: float, resource: str, metric: str, value: float) -> None:
        rows.append((t_ns, resource, metric, value))
        sink = self.counter_sink
        if sink is not None and metric in _COUNTER_METRICS:
            sink(t_ns, f"{resource}.{metric}", value)

    def sample(self, now: float) -> None:
        """Append one snapshot of every resource series at simulated ``now``."""
        system = self._system
        network = system.network
        rows = self.rows
        add = self._add
        t_ns = now * 1e9
        dt = now - self._last_now

        # Interconnect aggregates (any network type).
        total_bytes = network.bytes_sent
        delta_bytes = self._delta("network.bytes", total_bytes)
        add(rows, t_ns, "network", "bytes_total", total_bytes)
        add(rows, t_ns, "network", "messages_total", network.messages_sent)
        if dt > 0:
            add(rows, t_ns, "network", "bytes_per_s", delta_bytes / dt)

        # Optical crossbar: per-channel bytes, DWDM wavelengths, token waits.
        channel_bytes = getattr(network, "channel_bytes", None)
        if channel_bytes is not None:
            prev_channels = self._prev_channel_bytes
            active_channels = 0
            channel_total = 0.0
            for channel, value in channel_bytes.items():
                channel_total += value
                if value > prev_channels.get(channel, 0.0):
                    active_channels += 1
                prev_channels[channel] = value
            delta_channel = self._delta("crossbar.bytes", channel_total)
            if dt > 0:
                capacity = (
                    network.channel_bandwidth_bytes_per_s * len(channel_bytes)
                )
                add(rows, t_ns, "crossbar", "utilization", delta_channel / (dt * capacity))
            # Each channel is a DWDM bundle of crossbar_channel_width_bits
            # wavelengths; a channel that moved bytes this interval had its
            # comb lit.
            add(
                rows, t_ns, "wavelengths", "active",
                active_channels * system.corona_config.crossbar_channel_width_bits,
            )
            arbiter = getattr(network, "arbiter", None)
            if arbiter is not None and hasattr(arbiter, "channels"):
                channels = arbiter.channels.values()
                wait = sum(c.total_wait_s for c in channels)
                grants = sum(c.grants for c in arbiter.channels.values())
                add(rows, t_ns, "tokens", "wait_s_total", wait)
                add(rows, t_ns, "tokens", "grants_total", grants)

        # Electrical mesh: link occupancy.
        links = getattr(network, "links", None)
        if links:
            busy = sum(link.busy_time for link in links.values())
            delta_busy = self._delta("mesh.busy", busy)
            add(rows, t_ns, "mesh_links", "busy_s_total", busy)
            if dt > 0:
                add(
                    rows, t_ns, "mesh_links", "utilization",
                    delta_busy / (dt * len(links)),
                )

        # DRAM controllers: queue depth (booked entries, resident or waiting
        # for a slot) and bytes moved.
        controllers = system._controllers
        controller_list = (
            controllers if isinstance(controllers, list) else list(controllers.values())
        )
        depth = 0
        dram_bytes = 0.0
        for controller in controller_list:
            depth += controller.queue.occupancy(now)
            dram_bytes += controller.bytes_transferred
        add(rows, t_ns, "dram", "queue_depth", depth)
        add(rows, t_ns, "dram", "bytes_total", dram_bytes)
        delta_dram = self._delta("dram.bytes", dram_bytes)
        if dt > 0:
            add(rows, t_ns, "dram", "bytes_per_s", delta_dram / dt)

        # MSHR pools across every cluster hub.
        in_use = 0
        mshr_wait = 0.0
        for hub in system.hubs.values():
            pool = hub.mshr_pool
            in_use += pool.in_use(now)
            mshr_wait += pool.total_wait
        add(rows, t_ns, "mshr", "in_use", in_use)
        add(rows, t_ns, "mshr", "wait_s_total", mshr_wait)

        # Transaction lifecycle.
        issued = sum(state.next_index for state in system._threads.values())
        completed = system.stats.requests
        add(rows, t_ns, "transactions", "issued", issued)
        add(rows, t_ns, "transactions", "completed", completed)
        add(rows, t_ns, "transactions", "in_flight", issued - completed)

        # Coherence traffic: directory consultations, cache-to-cache
        # forwards, invalidation fan-out split by delivery mechanism, and
        # dirty writebacks.  Coherence-free replays build no engine and
        # emit none of these rows, keeping their sinks bit-identical.
        coherence = system.coherence
        if coherence is not None:
            cstats = coherence.stats
            add(rows, t_ns, "coherence", "directory_lookups", cstats.shared_requests)
            add(rows, t_ns, "coherence", "c2c_forwards", cstats.c2c_transfers)
            add(rows, t_ns, "coherence", "invalidations_sent", cstats.invalidations_sent)
            add(rows, t_ns, "coherence", "invalidation_broadcasts", cstats.broadcasts_used)
            add(rows, t_ns, "coherence", "invalidation_unicasts", cstats.unicast_invalidations)
            add(rows, t_ns, "coherence", "writebacks", cstats.dirty_writebacks)

        # Open-loop load tracking: the nominal offered rate vs the running
        # completion rate (closed-loop replays carry no offered load and
        # emit neither row, keeping their sinks bit-identical).
        if system._offered_rps > 0.0:
            add(rows, t_ns, "load", "offered_rps", system._offered_rps)
            if now > 0:
                add(rows, t_ns, "load", "achieved_rps", completed / now)

    # -- reporting -----------------------------------------------------------
    def resources(self) -> List[str]:
        """Distinct resource names sampled so far (row order preserved)."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row[1], None)
        return list(seen)
