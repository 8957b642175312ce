"""Align two run views and rank how far every pair drifted.

The comparison semantics in one place:

* **Scalars** (float result fields) and **counters** (int fields) compare
  by relative delta against :attr:`DiffThresholds.relative`; deltas inside
  the threshold are not divergences at all, so a self-diff of two
  identical-seed runs reports exactly zero.  A zero baseline with a
  nonzero current has no finite relative delta and is always severe.
* **Flags** (bool fields, e.g. ``saturated`` or ``coherence_enabled``)
  diverge on any flip, severity severe.
* **Distributions** -- when both pairs carry raw-sample artifacts
  (``--samples-out``), per-percentile deltas are computed from the samples
  with the replay's own nearest-rank estimator plus a two-sample KS
  distance; otherwise the summarized percentile fields stand in.
* **Structure** -- pairs present on only one side (added/removed) and
  ok-vs-failed status flips are severe and gating; pairs failed on *both*
  sides are reported informationally but never gate.
* **Phase timings** are wall-clock and legitimately move between hosts and
  runs, so their drift is kept in a separate informational list that never
  counts as a divergence and never gates.

Severity is the ratio of the observed relative delta to its threshold:
within 2x the threshold is ``minor``, within 5x ``moderate``, beyond that
``severe``.  :func:`metric_deltas` is the same relative-threshold core
exposed flat, and is what ``scripts/bench_regression.py`` gates through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.results import WorkloadResult, nearest_rank
from repro.diffing.loader import PairEntry, PairKey, RunView, align

#: Severity tiers, mildest first (``info`` entries never gate).
SEVERITIES = ("info", "minor", "moderate", "severe")


@dataclass(frozen=True)
class DiffThresholds:
    """The knobs of the comparison (all ratios are fractions, not percent)."""

    #: Relative delta a scalar/counter may move before it diverges.
    relative: float = 0.05
    #: Two-sample KS distance a latency distribution may show.
    ks: float = 0.1
    #: Quantiles compared when raw samples are available.
    percentiles: Tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)
    #: Values whose magnitudes both sit below this floor compare equal
    #: (guards the relative delta against denormal noise around zero).
    absolute_floor: float = 1e-12
    #: Informational phase-timing drift threshold (never gates).
    phase: float = 0.25


@dataclass(frozen=True)
class Divergence:
    """One ranked finding: a metric of one pair moved past its threshold."""

    key: PairKey
    #: ``scalar`` / ``counter`` / ``flag`` / ``distribution`` /
    #: ``structural`` / ``status`` / ``throughput`` (bench snapshots).
    kind: str
    metric: str
    baseline: object
    current: object
    #: ``|current - baseline| / |baseline|`` (``inf`` off a zero baseline;
    #: 0.0 for structural findings where no ratio exists).
    relative: float
    #: ``relative / threshold`` -- the ranking magnitude (``inf`` allowed).
    score: float
    severity: str
    #: Whether this finding pushes the CLI to exit code 5.
    gating: bool = True
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "point_id": self.key.point_id,
            "configuration": self.key.configuration,
            "workload": self.key.workload,
            "kind": self.kind,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "relative": self.relative if isfinite(self.relative) else None,
            "score": self.score if isfinite(self.score) else None,
            "severity": self.severity,
            "gating": self.gating,
            "note": self.note,
        }


@dataclass(frozen=True)
class MetricDelta:
    """One flat metric compared between two runs (the bench-gate shape)."""

    metric: str
    baseline: Optional[float]
    current: float
    #: ``current / baseline`` (None without a baseline value).
    ratio: Optional[float]
    #: The delta crossed the threshold in the *bad* direction.
    regressed: bool

    @property
    def has_baseline(self) -> bool:
        return self.baseline is not None and self.baseline != 0


def metric_deltas(
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    threshold: float,
) -> List[MetricDelta]:
    """Compare two flat throughput mappings; one delta per current key.

    Only the ``*_per_s`` keys (rates, where higher is better) are compared,
    in sorted order: a drop below ``1 - threshold`` of the baseline
    regresses.  Missing/zero baselines yield a delta with ``ratio=None``
    that never regresses -- exactly the bench tracker's ``(no baseline)``
    lines.
    """
    deltas: List[MetricDelta] = []
    for key in sorted(current):
        if not key.endswith("_per_s"):
            continue
        new = float(current[key])
        old = baseline.get(key)
        if not old:
            deltas.append(
                MetricDelta(
                    metric=key, baseline=old, current=new,
                    ratio=None, regressed=False,
                )
            )
            continue
        ratio = new / float(old)
        deltas.append(
            MetricDelta(
                metric=key, baseline=float(old), current=new,
                ratio=ratio, regressed=ratio < 1.0 - threshold,
            )
        )
    return deltas


def ks_distance(
    baseline: Sequence[float], current: Sequence[float]
) -> float:
    """Two-sample Kolmogorov-Smirnov distance of two *sorted* samples.

    The maximum absolute difference between the empirical CDFs -- 0.0 for
    identical samples, 1.0 for disjoint supports.  0.0 when either side is
    empty (no evidence of divergence without data).
    """
    if not baseline or not current:
        return 0.0
    distance = 0.0
    i = j = 0
    n, m = len(baseline), len(current)
    while i < n and j < m:
        # Consume every copy of the smaller value from *both* sides before
        # evaluating the CDF gap, so ties never register as divergence.
        value = min(baseline[i], current[j])
        while i < n and baseline[i] == value:
            i += 1
        while j < m and current[j] == value:
            j += 1
        distance = max(distance, abs(i / n - j / m))
    return distance


@dataclass
class DiffResult:
    """Everything one diff produced, ranked and ready to report."""

    baseline_label: str
    current_label: str
    aligned: int
    #: Pairs only the current run has / only the baseline has.
    added: List[PairKey] = field(default_factory=list)
    removed: List[PairKey] = field(default_factory=list)
    #: Ranked findings, most severe first (structural entries included).
    divergences: List[Divergence] = field(default_factory=list)
    #: Informational findings that never gate (both-failed pairs,
    #: phase-timing drift beyond the info threshold).
    notes: List[Divergence] = field(default_factory=list)
    #: ``(key, max_score)`` per diverging pair, worst first.
    pair_scores: List[Tuple[PairKey, float]] = field(default_factory=list)
    #: Sweep diffs only: axis values ranked by geomean metric drift
    #: (:func:`repro.sweeps.aggregate.axis_divergence_rows` rows).
    axis_divergences: List[Dict[str, object]] = field(default_factory=list)
    thresholds: DiffThresholds = field(default_factory=DiffThresholds)

    def gating(self) -> List[Divergence]:
        """The findings that demand exit code 5."""
        return [d for d in self.divergences if d.gating]

    @property
    def max_severity(self) -> str:
        worst = "info"
        for divergence in self.divergences:
            if SEVERITIES.index(divergence.severity) > SEVERITIES.index(worst):
                worst = divergence.severity
        return worst


# ---------------------------------------------------------------------------
# Field classification
# ---------------------------------------------------------------------------

def _field_kinds() -> Dict[str, str]:
    """``{field: scalar|counter|flag}`` over the stored result fields
    (identity keys -- workload/configuration -- excluded; they are the
    alignment key, not measurements)."""
    import typing

    kinds: Dict[str, str] = {}
    for name, hint in typing.get_type_hints(WorkloadResult).items():
        if name in ("workload", "configuration"):
            continue
        if hint is bool:
            kinds[name] = "flag"
        elif hint is int:
            kinds[name] = "counter"
        elif hint is float:
            kinds[name] = "scalar"
    return kinds


_FIELD_KINDS = _field_kinds()

#: Percentile fields covered by the raw-sample distribution comparison;
#: skipped in the per-field pass when samples exist (avoids double-reporting
#: one latency shift as both a scalar and a distribution finding).
_DISTRIBUTION_FIELDS = frozenset({"p99_latency_s"})


def _severity(score: float) -> str:
    if score <= 2.0:
        return "minor"
    if score <= 5.0:
        return "moderate"
    return "severe"


def _relative_delta(
    baseline: float, current: float, floor: float
) -> Optional[float]:
    """Relative delta, or ``None`` when the values compare equal.

    Both magnitudes under the absolute floor are equal by definition; a
    zero (or sub-floor) baseline against a real current value is ``inf``.
    """
    if baseline == current:
        return None
    if abs(baseline) < floor and abs(current) < floor:
        return None
    if abs(baseline) < floor:
        return inf
    return abs(current - baseline) / abs(baseline)


def _compare_fields(
    key: PairKey,
    baseline: WorkloadResult,
    current: WorkloadResult,
    thresholds: DiffThresholds,
    skip: frozenset,
) -> List[Divergence]:
    found: List[Divergence] = []
    for name in sorted(_FIELD_KINDS):
        if name in skip:
            continue
        kind = _FIELD_KINDS[name]
        old = getattr(baseline, name)
        new = getattr(current, name)
        if kind == "flag":
            if bool(old) != bool(new):
                found.append(
                    Divergence(
                        key=key, kind="flag", metric=name,
                        baseline=bool(old), current=bool(new),
                        relative=inf, score=inf, severity="severe",
                        note="flag flipped",
                    )
                )
            continue
        relative = _relative_delta(
            float(old), float(new), thresholds.absolute_floor
        )
        if relative is None or relative <= thresholds.relative:
            continue
        score = (
            relative / thresholds.relative if thresholds.relative > 0 else inf
        )
        found.append(
            Divergence(
                key=key, kind=kind, metric=name,
                baseline=old, current=new,
                relative=relative, score=score, severity=_severity(score),
            )
        )
    return found


def _compare_distribution(
    key: PairKey,
    baseline: PairEntry,
    current: PairEntry,
    thresholds: DiffThresholds,
) -> Tuple[List[Divergence], bool]:
    """Raw-sample latency comparison; ``(findings, had_samples)``."""
    base_samples = baseline.latency_samples()
    current_samples = current.latency_samples()
    if not base_samples or not current_samples:
        return [], False
    found: List[Divergence] = []
    for quantile in thresholds.percentiles:
        old = nearest_rank(base_samples, quantile)
        new = nearest_rank(current_samples, quantile)
        relative = _relative_delta(old, new, thresholds.absolute_floor)
        if relative is None or relative <= thresholds.relative:
            continue
        score = (
            relative / thresholds.relative if thresholds.relative > 0 else inf
        )
        found.append(
            Divergence(
                key=key, kind="distribution",
                metric=f"latency_p{quantile * 100:g}",
                baseline=old, current=new,
                relative=relative, score=score, severity=_severity(score),
                note=(
                    f"nearest-rank over {len(base_samples)} vs "
                    f"{len(current_samples)} samples"
                ),
            )
        )
    distance = ks_distance(base_samples, current_samples)
    if distance > thresholds.ks:
        score = distance / thresholds.ks if thresholds.ks > 0 else inf
        found.append(
            Divergence(
                key=key, kind="distribution", metric="latency_ks",
                baseline=0.0, current=distance,
                relative=distance, score=score, severity=_severity(score),
                note="two-sample KS distance of the latency CDFs",
            )
        )
    return found, True


def _structural(key: PairKey, metric: str, note: str) -> Divergence:
    return Divergence(
        key=key, kind="structural", metric=metric,
        baseline=None, current=None,
        relative=0.0, score=inf, severity="severe", note=note,
    )


def _rank(divergences: List[Divergence]) -> List[Divergence]:
    """Most severe first; deterministic tie-breaks by pair key and metric."""
    return sorted(
        divergences,
        key=lambda d: (
            -SEVERITIES.index(d.severity),
            -(d.score if isfinite(d.score) else 1e308),
            d.key,
            d.metric,
        ),
    )


def _diff_bench(
    baseline: RunView, current: RunView, thresholds: DiffThresholds
) -> DiffResult:
    """Bench snapshots compare as flat throughput metrics (higher is
    better), through the same :func:`metric_deltas` core the bench
    regression gate uses."""
    result = DiffResult(
        baseline_label=baseline.label,
        current_label=current.label,
        aligned=len(
            set(baseline.bench_metrics) & set(current.bench_metrics)
        ),
        thresholds=thresholds,
    )
    deltas = metric_deltas(
        baseline.bench_metrics,
        current.bench_metrics,
        thresholds.relative,
    )
    for delta in deltas:
        if not delta.regressed:
            continue
        relative = abs(delta.ratio - 1.0)
        score = (
            relative / thresholds.relative if thresholds.relative > 0 else inf
        )
        result.divergences.append(
            Divergence(
                key=PairKey("", "", ""),
                kind="throughput", metric=delta.metric,
                baseline=delta.baseline, current=delta.current,
                relative=relative, score=score, severity=_severity(score),
                note=f"{delta.ratio:.2f}x of baseline throughput",
            )
        )
    result.divergences = _rank(result.divergences)
    result.notes.extend(_phase_notes(baseline, current, thresholds))
    return result


def _phase_notes(
    baseline: RunView, current: RunView, thresholds: DiffThresholds
) -> List[Divergence]:
    """Informational phase-timing drift (wall-clock; never gates)."""
    notes: List[Divergence] = []
    for name in sorted(set(baseline.phase_seconds) & set(current.phase_seconds)):
        old = baseline.phase_seconds[name]
        new = current.phase_seconds[name]
        relative = _relative_delta(old, new, thresholds.absolute_floor)
        if relative is None or relative <= thresholds.phase:
            continue
        notes.append(
            Divergence(
                key=PairKey("", "", ""),
                kind="phase", metric=name,
                baseline=old, current=new,
                relative=relative,
                score=relative / thresholds.phase if thresholds.phase else inf,
                severity="info", gating=False,
                note="wall-clock phase drift (informational)",
            )
        )
    return notes


def diff_runs(
    baseline: RunView,
    current: RunView,
    thresholds: Optional[DiffThresholds] = None,
) -> DiffResult:
    """Align two runs and return their ranked divergences.

    Two bench snapshots diff as flat throughput metrics; everything else
    aligns pair-by-pair on ``(point_id, configuration, workload)``.
    Mixing a bench snapshot with a results artifact is a
    :class:`ValueError` -- the shapes share no comparison surface.
    """
    thresholds = thresholds if thresholds is not None else DiffThresholds()
    if baseline.is_bench != current.is_bench:
        raise ValueError(
            f"cannot diff {baseline.kind} ({baseline.label}) against "
            f"{current.kind} ({current.label}); bench snapshots only diff "
            f"against bench snapshots"
        )
    if baseline.is_bench:
        return _diff_bench(baseline, current, thresholds)

    common, added, removed = align(baseline, current)
    result = DiffResult(
        baseline_label=baseline.label,
        current_label=current.label,
        aligned=len(common),
        added=added,
        removed=removed,
        thresholds=thresholds,
    )
    divergences: List[Divergence] = []
    for key in added:
        divergences.append(
            _structural(key, "pair_added", "pair only in the current run")
        )
    for key in removed:
        divergences.append(
            _structural(key, "pair_removed", "pair only in the baseline run")
        )
    pair_worst: Dict[PairKey, float] = {}

    def note_score(key: PairKey, findings: List[Divergence]) -> None:
        for finding in findings:
            score = finding.score if isfinite(finding.score) else 1e308
            if score > pair_worst.get(key, 0.0):
                pair_worst[key] = score

    for key in common:
        base_entry = baseline.entries[key]
        current_entry = current.entries[key]
        if base_entry.status == "failed" and current_entry.status == "failed":
            result.notes.append(
                Divergence(
                    key=key, kind="status", metric="status",
                    baseline="failed", current="failed",
                    relative=0.0, score=0.0, severity="info", gating=False,
                    note="pair failed in both runs",
                )
            )
            continue
        if base_entry.status != current_entry.status:
            finding = Divergence(
                key=key, kind="status", metric="status",
                baseline=base_entry.status, current=current_entry.status,
                relative=inf, score=inf, severity="severe",
                note="pair flipped between ok and failed",
            )
            divergences.append(finding)
            note_score(key, [finding])
            continue
        distribution, had_samples = _compare_distribution(
            key, base_entry, current_entry, thresholds
        )
        skip = _DISTRIBUTION_FIELDS if had_samples else frozenset()
        findings = _compare_fields(
            key, base_entry.result, current_entry.result, thresholds, skip
        )
        findings.extend(distribution)
        divergences.extend(findings)
        note_score(key, findings)

    result.divergences = _rank(divergences)
    result.pair_scores = sorted(
        pair_worst.items(), key=lambda item: (-item[1], item[0])
    )
    if baseline.axis_names and baseline.axis_names == current.axis_names:
        from repro.sweeps.aggregate import axis_divergence_rows

        result.axis_divergences = [
            row
            for row in axis_divergence_rows(
                baseline.records(), current.records(), baseline.axis_names
            )
            # Bit-identical axis values (ratio exactly 1.0) are not drift.
            if row["magnitude"] > 0.0
        ]
    result.notes.extend(_phase_notes(baseline, current, thresholds))
    return result


__all__ = [
    "SEVERITIES",
    "DiffResult",
    "DiffThresholds",
    "Divergence",
    "MetricDelta",
    "diff_runs",
    "ks_distance",
    "metric_deltas",
]
