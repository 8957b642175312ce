"""Result containers and speedup analysis for the evaluation.

A :class:`WorkloadResult` captures everything Figures 8-11 need about one
(workload, configuration) pair: execution time, achieved memory bandwidth,
average L2-miss latency and network power.  ``speedup_table`` normalizes the
execution times against the paper's baseline (LMesh/ECM) and computes the
geometric-mean speedups quoted in Section 5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from math import ceil
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.sim.stats import geometric_mean

#: Format tag of the per-pair raw-sample artifact (``--samples-out``).
SAMPLES_FORMAT = "corona-samples/1"


def nearest_rank(ordered: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 when empty).

    The same estimator the replay uses for its p99/sojourn fields, exposed
    so the diff engine computes percentile deltas with identical semantics.
    """
    if not ordered:
        return 0.0
    rank = ceil(quantile * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def samples_payload(
    configuration: str,
    workload: str,
    latency_s: Sequence[float],
    sojourn_s: Sequence[float] = (),
) -> Dict[str, object]:
    """The raw-sample sink document: per-transaction latency (and, on
    open-loop replays, sojourn) samples in replay order.

    Kept as a separate artifact rather than result fields so the long-form
    CSV/JSON sinks stay fixed-width; the diff engine reads these to compute
    exact per-percentile deltas and KS distances instead of comparing only
    the summarized p50/p95/p99 fields.
    """
    payload: Dict[str, object] = {
        "format": SAMPLES_FORMAT,
        "configuration": configuration,
        "workload": workload,
        "latency_s": list(latency_s),
    }
    if sojourn_s:
        payload["sojourn_s"] = list(sojourn_s)
    return payload


def load_samples(path: str) -> Dict[str, object]:
    """Parse a :data:`SAMPLES_FORMAT` artifact, validating its format tag."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, Mapping) or payload.get("format") != SAMPLES_FORMAT:
        raise ValueError(
            f"{path}: not a raw-sample artifact (expected format "
            f"{SAMPLES_FORMAT!r}, got {payload.get('format')!r})"
        )
    return dict(payload)


@dataclass(frozen=True)
class WorkloadResult:
    """Measurements from replaying one workload on one configuration."""

    workload: str
    configuration: str
    num_requests: int
    execution_time_s: float
    achieved_bandwidth_bytes_per_s: float
    average_latency_s: float
    p99_latency_s: float
    network_dynamic_power_w: float
    network_static_power_w: float
    network_energy_j: float
    network_messages: int
    network_hops: int
    memory_bytes: float
    average_token_wait_s: float = 0.0
    average_queueing_delay_s: float = 0.0
    is_synthetic: bool = False
    # -- coherence subsystem (zero/False on coherence-free replays) ---------
    coherence_enabled: bool = False
    #: Misses to shared lines that consulted a home directory.
    shared_requests: int = 0
    #: Total sharer copies invalidated, regardless of delivery mechanism.
    invalidations_sent: int = 0
    #: Invalidation rounds delivered as one optical broadcast.
    invalidation_broadcasts: int = 0
    #: Unicast INVALIDATE messages sent on the interconnect.
    invalidation_unicasts: int = 0
    #: Mean time from directory action to the slowest sharer's invalidation.
    average_invalidation_latency_s: float = 0.0
    cache_to_cache_transfers: int = 0
    #: Mean time from directory action to data arrival at the requester.
    average_cache_to_cache_latency_s: float = 0.0
    dirty_writebacks: int = 0
    #: Fraction of the replay the broadcast bus spent modulating.
    broadcast_occupancy: float = 0.0
    # -- fault injection (zero/False on fault-free replays) -----------------
    faults_enabled: bool = False
    #: DWDM wavelengths detuned out of optical channels at install time.
    fault_wavelengths_disabled: int = 0
    #: Links/waveguide bundles running at reduced bandwidth.
    fault_links_degraded: int = 0
    #: Arbitration tokens lost (and regenerated) during the replay.
    fault_tokens_lost: int = 0
    #: Total grant time spent waiting on token regeneration.
    fault_token_regen_wait_s: float = 0.0
    #: Transient DRAM timeouts retried during the replay.
    fault_dram_timeouts: int = 0
    #: Total extra latency charged by DRAM retries.
    fault_dram_retry_s: float = 0.0
    # -- open-loop arrivals (zero/False on closed-loop replays) --------------
    #: Realized offered load: trace requests over the arrival-schedule span.
    offered_rps: float = 0.0
    #: Completed requests divided by the replay makespan.
    achieved_rps: float = 0.0
    #: Achieved throughput fell below 95% of the offered load.
    saturated: bool = False
    #: Sojourn = completion minus scheduled arrival (queueing plus service).
    p50_sojourn_ns: float = 0.0
    p95_sojourn_ns: float = 0.0
    p99_sojourn_ns: float = 0.0

    @property
    def network_power_w(self) -> float:
        """Total on-chip network power (dynamic plus always-on)."""
        return self.network_dynamic_power_w + self.network_static_power_w

    @property
    def achieved_bandwidth_tbps(self) -> float:
        return self.achieved_bandwidth_bytes_per_s / 1e12

    @property
    def average_latency_ns(self) -> float:
        return self.average_latency_s * 1e9

    @property
    def requests_per_second(self) -> float:
        if self.execution_time_s <= 0:
            return 0.0
        return self.num_requests / self.execution_time_s

    @property
    def average_invalidation_latency_ns(self) -> float:
        return self.average_invalidation_latency_s * 1e9

    @property
    def average_cache_to_cache_latency_ns(self) -> float:
        return self.average_cache_to_cache_latency_s * 1e9

    # -- serialization (Scenario API result sinks) ---------------------------
    def to_dict(self) -> Dict[str, object]:
        """All stored fields as a JSON-ready mapping (exact round-trip)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadResult":
        """Rebuild a result from :meth:`to_dict` output.

        Unknown keys raise a :class:`ValueError` naming the key, so stale
        result files fail loudly instead of silently dropping fields.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown WorkloadResult field {sorted(unknown)[0]!r}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)


#: Column order of :func:`results_to_csv_rows`: the stored dataclass fields.
RESULT_CSV_COLUMNS: List[str] = [f.name for f in fields(WorkloadResult)]


def results_to_csv_rows(
    results: Iterable[WorkloadResult],
) -> List[List[object]]:
    """Results as rows matching :data:`RESULT_CSV_COLUMNS` (header excluded)."""
    return [
        [getattr(result, column) for column in RESULT_CSV_COLUMNS]
        for result in results
    ]


def long_form_columns(axis_names: Sequence[str]) -> List[str]:
    """CSV header of a long-form sweep sink: the point id, one ``axis.<name>``
    column per sweep axis (prefixed so axis names can never collide with
    result fields), then every stored :class:`WorkloadResult` field."""
    return [
        "point_id",
        *(f"axis.{name}" for name in axis_names),
        *RESULT_CSV_COLUMNS,
    ]


def long_form_row(
    point_id: str,
    axis_values: Sequence[object],
    result: WorkloadResult,
) -> List[object]:
    """One long-form sweep row matching :func:`long_form_columns`."""
    return [
        point_id,
        *axis_values,
        *(getattr(result, column) for column in RESULT_CSV_COLUMNS),
    ]


def _group(results: Iterable[WorkloadResult]) -> Dict[str, Dict[str, WorkloadResult]]:
    """Group results as ``{workload: {configuration: result}}``."""
    grouped: Dict[str, Dict[str, WorkloadResult]] = {}
    for result in results:
        grouped.setdefault(result.workload, {})[result.configuration] = result
    return grouped


def speedup_table(
    results: Iterable[WorkloadResult],
    baseline: str = "LMesh/ECM",
) -> Dict[str, Dict[str, float]]:
    """Normalized speedup of every configuration over ``baseline``, per workload.

    Speedup is the ratio of execution times (baseline / configuration), the
    quantity plotted in Figure 8.
    """
    grouped = _group(results)
    table: Dict[str, Dict[str, float]] = {}
    for workload, by_config in grouped.items():
        if baseline not in by_config:
            raise KeyError(
                f"workload {workload!r} has no {baseline!r} result to normalize by"
            )
        base_time = by_config[baseline].execution_time_s
        table[workload] = {
            config: base_time / result.execution_time_s
            for config, result in by_config.items()
        }
    return table


def geometric_mean_speedup(
    results: Iterable[WorkloadResult],
    numerator: str,
    denominator: str,
    workloads: Optional[Sequence[str]] = None,
) -> float:
    """Geometric-mean speedup of one configuration over another.

    Reproduces the paper's aggregate claims, e.g. HMesh/OCM over HMesh/ECM is
    3.28x on the synthetic benchmarks and 1.80x on SPLASH-2.
    """
    grouped = _group(results)
    selected = workloads if workloads is not None else sorted(grouped)
    ratios: List[float] = []
    for workload in selected:
        by_config = grouped.get(workload, {})
        if numerator not in by_config or denominator not in by_config:
            raise KeyError(
                f"workload {workload!r} lacks results for "
                f"{numerator!r} and/or {denominator!r}"
            )
        ratios.append(
            by_config[denominator].execution_time_s
            / by_config[numerator].execution_time_s
        )
    return geometric_mean(ratios)


def metric_table(
    results: Iterable[WorkloadResult], metric: str
) -> Dict[str, Dict[str, float]]:
    """Extract ``{workload: {configuration: value}}`` for a result attribute.

    ``metric`` is any numeric attribute/property of :class:`WorkloadResult`,
    e.g. ``"achieved_bandwidth_tbps"`` (Figure 9), ``"average_latency_ns"``
    (Figure 10) or ``"network_power_w"`` (Figure 11).
    """
    grouped = _group(results)
    table: Dict[str, Dict[str, float]] = {}
    for workload, by_config in grouped.items():
        table[workload] = {}
        for config, result in by_config.items():
            value = getattr(result, metric)
            if not isinstance(value, (int, float)):
                raise TypeError(f"metric {metric!r} is not numeric")
            table[workload][config] = float(value)
    return table
