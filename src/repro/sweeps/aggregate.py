"""Sweep-level aggregation: geomean per axis value and crossover detection.

The long-form records of a sweep answer "what happened at each point"; this
module answers the two questions a sweep is usually run to decide:

* **Per-axis geomeans** -- for each axis value, the geometric mean of a
  result metric per configuration over every record at that value, i.e.
  the aggregate trend along each axis (the paper's own speedup quotes are
  geomeans, :func:`repro.sim.stats.geometric_mean`).
* **Crossovers** -- axis intervals where the configuration ranking flips
  (configuration A beats B at one value and loses at the next), the
  knee-adjacent facts a flat table hides.

Both feed the sweep markdown report
(:func:`aggregation_report_section`), and the diff engine reuses
:func:`axis_divergence_rows` to rank *which axis value* moved most between
two runs of the same sweep.  For coherence-enabled records the report also
carries the coherence cost table (:func:`coherence_report_section`).
"""

from __future__ import annotations

import json
from math import log
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.stats import geometric_mean

#: Metric aggregated by default (lower is better: execution time).
DEFAULT_METRIC = "execution_time_s"


def _metric_value(result, metric: str) -> Optional[float]:
    value = getattr(result, metric, None)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _value_key(value: object) -> object:
    """A hashable stand-in for an axis value (axes may write lists, e.g. a
    configuration axis whose values are configuration-name lists).  Axis
    values come from JSON specs, so containers are lists/dicts."""
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, default=repr)
    return value


def _axis_value_order(records, axis: str) -> List[object]:
    """Distinct values of one axis in record order (the expansion order of
    the grid, which is the user's declared order)."""
    seen: Dict[object, object] = {}
    for record in records:
        if axis in record.axis_values:
            value = record.axis_values[axis]
            seen.setdefault(_value_key(value), value)
    return list(seen.values())


def axis_value_geomeans(
    records: Sequence,
    axis_names: Sequence[str],
    metric: str = DEFAULT_METRIC,
) -> Dict[str, List[Tuple[object, Dict[str, float]]]]:
    """Per axis: ordered ``(value, {configuration: geomean})`` aggregates.

    ``records`` are :class:`~repro.sweeps.engine.SweepRecord`-shaped (any
    object with ``axis_values`` and ``result``).  Records whose metric is
    missing or non-positive are skipped (geomeans need positive values).
    """
    table: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}
    for axis in axis_names:
        rows: List[Tuple[object, Dict[str, float]]] = []
        for value in _axis_value_order(records, axis):
            grouped: Dict[str, List[float]] = {}
            for record in records:
                if _value_key(record.axis_values.get(axis)) != _value_key(value):
                    continue
                sample = _metric_value(record.result, metric)
                if sample is not None and sample > 0:
                    grouped.setdefault(
                        record.result.configuration, []
                    ).append(sample)
            if grouped:
                rows.append(
                    (
                        value,
                        {
                            configuration: geometric_mean(samples)
                            for configuration, samples in grouped.items()
                        },
                    )
                )
        if rows:
            table[axis] = rows
    return table


def detect_crossovers(
    geomeans: Mapping[str, Sequence[Tuple[object, Mapping[str, float]]]],
) -> List[Dict[str, object]]:
    """Configuration-ranking flips between consecutive axis values.

    For every axis and every configuration pair present at two consecutive
    values, reports an entry when the sign of their geomean difference
    flips -- ``{"axis", "between": (v1, v2), "leader_before",
    "leader_after"}``.  Ties (equal geomeans) never count as a flip.
    """
    crossovers: List[Dict[str, object]] = []
    for axis, rows in geomeans.items():
        for (value_a, means_a), (value_b, means_b) in zip(rows, rows[1:]):
            shared = sorted(set(means_a) & set(means_b))
            for i, first in enumerate(shared):
                for second in shared[i + 1:]:
                    before = means_a[first] - means_a[second]
                    after = means_b[first] - means_b[second]
                    if before == 0.0 or after == 0.0:
                        continue
                    if (before < 0) == (after < 0):
                        continue
                    # Lower metric wins (execution time): the leader is the
                    # configuration with the smaller geomean.
                    crossovers.append(
                        {
                            "axis": axis,
                            "between": (value_a, value_b),
                            "leader_before": first if before < 0 else second,
                            "leader_after": first if after < 0 else second,
                        }
                    )
    return crossovers


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return "/".join(_format_value(item) for item in value)
    return str(value)


def aggregation_report_section(
    records: Sequence,
    axis_names: Sequence[str],
    metric: str = DEFAULT_METRIC,
) -> List[str]:
    """Markdown lines of the per-axis aggregation (empty when no axis has
    aggregable records), appended to the sweep report.

    An axis whose every value holds records of exactly one configuration,
    a different one per value (a ``configuration`` axis), gets no table:
    it would be the main table's diagonal and can show no crossover.
    """
    geomeans = {
        axis: rows
        for axis, rows in axis_value_geomeans(records, axis_names, metric).items()
        if not _is_diagonal(rows)
    }
    if not geomeans:
        return []
    lines: List[str] = ["## Axis aggregation", ""]
    lines.append(
        f"Geometric mean of `{metric}` per axis value (over every record "
        f"at that value)."
    )
    lines.append("")
    for axis, rows in geomeans.items():
        configurations = sorted(
            {name for _, means in rows for name in means}
        )
        header = [axis] + configurations
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|---" * len(header) + "|")
        for value, means in rows:
            cells = [_format_value(value)] + [
                f"{means[name] * 1e6:.2f} us" if name in means else "-"
                for name in configurations
            ]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    crossovers = detect_crossovers(geomeans)
    if crossovers:
        lines.append("Crossovers (configuration ranking flips):")
        lines.append("")
        for crossover in crossovers:
            v1, v2 = crossover["between"]
            lines.append(
                f"- `{crossover['axis']}`: {crossover['leader_before']} "
                f"leads at {_format_value(v1)}, "
                f"{crossover['leader_after']} leads at {_format_value(v2)}"
            )
        lines.append("")
    return lines


def _is_diagonal(rows: Sequence[Tuple[object, Mapping[str, float]]]) -> bool:
    """Whether each axis value holds one configuration, a different one each."""
    owners = [tuple(means) for _, means in rows]
    return all(len(owner) == 1 for owner in owners) and len(set(owners)) == len(owners)


def coherence_report_section(
    records: Sequence, axis_names: Sequence[str]
) -> List[str]:
    """Markdown lines of the coherence cost table (empty when no record has
    coherence enabled), appended to the sweep report.

    One row per coherence-enabled record, with the coherence-cost metrics
    side by side: once sharing is enabled, the broadcast-equipped photonic
    configuration should show the lowest invalidation latency.
    """
    coherent = [record for record in records if record.result.coherence_enabled]
    if not coherent:
        return []
    lines: List[str] = ["## Coherence cost", ""]
    lines.append(
        "Invalidations ride the optical broadcast bus on configurations that "
        "carry one (XBar/OCM) and fan out as per-sharer unicasts elsewhere; "
        "`inval ns` is the mean time from directory action to the slowest "
        "sharer's invalidation, `c2c ns` the mean cache-to-cache transfer "
        "latency."
    )
    lines.append("")
    record_columns = [
        "configuration", "exec us", "miss ns", "inval ns", "c2c ns",
        "bcasts", "unicasts", "writebacks", "bus occ",
    ]
    # An axis named like a record column shows once, as the record's value.
    shown_axes = [name for name in axis_names if name not in record_columns]
    header = ["point"] + shown_axes + record_columns
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|---" * len(header) + "|")
    for record in coherent:
        result = record.result
        cells = (
            [record.point_id]
            + [_format_value(record.axis_values.get(name)) for name in shown_axes]
            + [
                result.configuration,
                f"{result.execution_time_s * 1e6:.2f}",
                f"{result.average_latency_ns:.1f}",
                f"{result.average_invalidation_latency_ns:.2f}",
                f"{result.average_cache_to_cache_latency_ns:.2f}",
                str(result.invalidation_broadcasts),
                str(result.invalidation_unicasts),
                str(result.dirty_writebacks),
                f"{result.broadcast_occupancy:.4f}",
            ]
        )
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def axis_divergence_rows(
    baseline_records: Sequence,
    current_records: Sequence,
    axis_names: Sequence[str],
    metric: str = DEFAULT_METRIC,
) -> List[Dict[str, object]]:
    """Axis values ranked by how much ``metric`` moved between two runs.

    For each (axis, value) pair present in both runs, the geomean of the
    per-point current/baseline metric ratios (points aligned by
    ``(point_id, configuration, workload)``); entries are ranked by
    ``|log(ratio)|`` descending, so the axis value that drifted most --
    in either direction -- comes first.  The diff engine uses this to say
    *where along the sweep* two runs diverged, not just which pairs.
    """
    def _index(records) -> Dict[Tuple[str, str, str], object]:
        return {
            (
                getattr(record, "point_id", ""),
                record.result.configuration,
                record.result.workload,
            ): record
            for record in records
        }

    baseline_index = _index(baseline_records)
    rows: List[Dict[str, object]] = []
    for axis in axis_names:
        for value in _axis_value_order(current_records, axis):
            ratios: List[float] = []
            for record in current_records:
                if _value_key(record.axis_values.get(axis)) != _value_key(value):
                    continue
                key = (
                    getattr(record, "point_id", ""),
                    record.result.configuration,
                    record.result.workload,
                )
                base = baseline_index.get(key)
                if base is None:
                    continue
                current_value = _metric_value(record.result, metric)
                base_value = _metric_value(base.result, metric)
                if (
                    current_value is not None
                    and base_value is not None
                    and current_value > 0
                    and base_value > 0
                ):
                    ratios.append(current_value / base_value)
            if ratios:
                ratio = geometric_mean(ratios)
                rows.append(
                    {
                        "axis": axis,
                        "value": value,
                        "metric": metric,
                        "geomean_ratio": ratio,
                        "magnitude": abs(log(ratio)),
                        "pairs": len(ratios),
                    }
                )
    rows.sort(
        key=lambda row: (
            -row["magnitude"],
            row["axis"],
            _format_value(row["value"]),
        )
    )
    return rows


def relative_drift(ratio: float) -> float:
    """``|ratio - 1|`` clipped at 0 -- the fractional drift a geomean ratio
    represents (used by the diff report's axis table)."""
    return abs(ratio - 1.0)


__all__ = [
    "DEFAULT_METRIC",
    "aggregation_report_section",
    "axis_divergence_rows",
    "axis_value_geomeans",
    "coherence_report_section",
    "detect_crossovers",
    "relative_drift",
]
