"""The sweep execution engine: expand, replay, checkpoint, resume.

:func:`run_sweep` drives an expanded grid through the harness's one pair
loop (:func:`repro.harness.parallel.run_pairs`, which also runs every
scenario), so a sweep is bit-identical between ``--jobs 1`` and
``--jobs N`` for free.  Three things make it a
study engine rather than a loop:

* **Trace reuse** -- packed traces are generated once per *distinct
  workload signature* (the workload spec's canonical dict + seed + request
  count) in a :class:`TraceCache`, not once per point, so a grid that only
  varies configuration overrides generates each trace exactly once.  The
  cache counts generations and takes an ``on_generate`` hook, which is how
  tests assert the reuse.
* **Checkpointed resume** -- with a ``directory``, the engine writes a
  ``manifest.json`` (the spec, its hash, the full point-id list) once and
  appends one ``points.jsonl`` line per *completed* point the moment its
  last pair lands.  Re-invoking the same sweep on the same directory skips
  every recorded point and replays only the remainder; a directory holding
  a different spec is refused.
* **Structured sinks** -- every (point, result) pair becomes a long-form
  record (point id + axis values + every stored
  :class:`~repro.core.results.WorkloadResult` field) written to the spec's
  JSON/CSV sinks, plus a markdown summary table, merging resumed and fresh
  points in expansion order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.api.run import build_matrix
from repro.api.scenario import ScenarioError
from repro.core.results import (
    WorkloadResult,
    long_form_columns,
    long_form_row,
)
from repro.harness.resilience import (
    DEFAULT_POLICY,
    FAILURE_CSV_COLUMNS,
    PairFailure,
    PairFailureError,
    RetryPolicy,
)
from repro.obs.log import get_logger
from repro.obs.progress import ProgressReporter
from repro.obs.spec import ObservabilitySpec
from repro.sweeps.spec import SweepError, SweepPoint, SweepSpec, expand
from repro.trace.packed import PackedTrace

_log = get_logger(__name__)

#: Format tags of the on-disk artefacts.
MANIFEST_FORMAT = "corona-sweep-manifest/1"
RESULTS_FORMAT = "corona-sweep-results/1"

MANIFEST_NAME = "manifest.json"
POINTS_NAME = "points.jsonl"


class TraceCache:
    """Packed traces keyed by workload signature, generated at most once.

    The signature is conservative: any difference in the workload spec's
    canonical dict (params, sharing, name), the seed or the request count
    yields a new entry, so reuse is always sound.  ``generations`` counts
    actual generator invocations and ``on_generate`` (if set) fires on each
    -- the observability hook the perf tests assert against.
    """

    def __init__(
        self,
        on_generate: Optional[Callable[[str, PackedTrace], None]] = None,
    ) -> None:
        self.on_generate = on_generate
        self.generations = 0
        self._traces: Dict[str, PackedTrace] = {}

    def __len__(self) -> int:
        return len(self._traces)

    def get(
        self, signature: str, workload, seed: int, num_requests: int
    ) -> PackedTrace:
        """The packed trace for ``signature``, generating on first use."""
        packed = self._traces.get(signature)
        if packed is None:
            packed = workload.generate_packed(seed=seed, num_requests=num_requests)
            self.generations += 1
            self._traces[signature] = packed
            if self.on_generate is not None:
                self.on_generate(signature, packed)
        return packed


def workload_signature(
    workload_spec_dict: Mapping, seed: int, num_requests: int
) -> str:
    """The trace-cache key: canonical JSON of (spec, seed, requests)."""
    return json.dumps(
        {
            "workload": workload_spec_dict,
            "seed": seed,
            "num_requests": num_requests,
        },
        sort_keys=True,
        default=repr,
    )


def spec_digest(spec: SweepSpec) -> str:
    """SHA-256 over the spec's *result-affecting* fields (base + axes).

    The resume-compatibility tag: editing operational or display fields --
    the sweep's ``name``/``description``/``jobs``/``output``, the base's
    likewise -- between runs must not refuse a resume (a killed-at-``jobs:
    1`` sweep may legitimately finish at ``jobs: 8``; results are
    bit-identical across job counts), while any change to the grid itself
    invalidates the checkpoints.
    """
    payload = spec.to_dict()
    base = {
        key: value
        for key, value in payload["base"].items()
        if key
        not in (
            "name",
            "description",
            "jobs",
            "output",
            # Telemetry changes what a run *records*, never what it computes,
            # so toggling it must not invalidate checkpointed points.
            "observability",
        )
    }
    canonical = json.dumps(
        {"base": base, "axes": payload["axes"]}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepRecord:
    """One long-form result row: a point's coordinates plus one replay."""

    point_id: str
    axis_values: Mapping[str, object]
    result: WorkloadResult

    def to_dict(self) -> Dict[str, object]:
        return {
            "point_id": self.point_id,
            "axis_values": dict(self.axis_values),
            "result": self.result.to_dict(),
        }


@dataclass
class SweepRunResult:
    """Everything one sweep run produced (or resumed).

    ``failures`` maps each failed point id to its structured
    :class:`~repro.harness.resilience.PairFailure` records (pairs that
    exhausted the retry policy); such points carry no records and re-run on
    the next resume.  ``retried_pairs`` counts pair attempts beyond the
    first across the whole run (successful retries included).
    """

    spec: SweepSpec
    points: List[SweepPoint]
    records: List[SweepRecord]
    executed_point_ids: List[str] = field(default_factory=list)
    skipped_point_ids: List[str] = field(default_factory=list)
    written: Dict[str, Path] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    directory: Optional[Path] = None
    failures: Dict[str, List[PairFailure]] = field(default_factory=dict)
    retried_pairs: int = 0

    @property
    def failed_point_ids(self) -> List[str]:
        return list(self.failures)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _manifest_payload(spec: SweepSpec, points: Sequence[SweepPoint]) -> Dict:
    return {
        "format": MANIFEST_FORMAT,
        "name": spec.name,
        "spec_sha256": spec_digest(spec),
        "point_ids": [point.point_id for point in points],
        # Point-level alignment metadata: the diff engine aligns two sweep
        # directories by (point_id, configuration, workload) and labels the
        # axis coordinates without re-expanding the spec.
        "points": [
            {
                "point_id": point.point_id,
                "axis_values": dict(point.axis_values),
            }
            for point in points
        ],
        "sweep": spec.to_dict(),
    }


def _read_manifest(directory: Path) -> Optional[Dict]:
    path = directory / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SweepError(str(path), f"unreadable sweep manifest: {exc}") from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise SweepError(
            str(path),
            f"not a sweep manifest (format {manifest.get('format')!r}; "
            f"this build reads {MANIFEST_FORMAT!r})",
        )
    return manifest


def _load_completed(
    directory: Path,
) -> Tuple[
    Dict[str, List[WorkloadResult]],
    Dict[str, List[Dict]],
    Dict[str, int],
    Dict[str, float],
    int,
]:
    """Points recorded by earlier (possibly killed) runs.

    Returns ``(completed, failed, retried, seconds, good_offset)``: the
    parsed completed points, the failed points' raw failure dicts (entries
    with ``"status": "failed"``; their points re-run on resume), the
    per-point retried-pair counts, the per-point replay seconds (entries
    that recorded them), and the byte offset just past the last *intact*
    line -- the caller truncates the file there before appending, so a line
    half-written by a kill can never merge with the resumed run's first
    record (which would otherwise poison every future resume).  A point
    appearing more than once (a failed run later resumed to success, or
    vice versa) resolves to its *latest* entry, so nothing double-counts.
    """
    path = directory / POINTS_NAME
    completed: Dict[str, List[WorkloadResult]] = {}
    failed: Dict[str, List[Dict]] = {}
    retried: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    good_offset = 0
    if not path.exists():
        return completed, failed, retried, seconds, good_offset
    with path.open("rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # half-written final line (killed mid-write)
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                try:
                    entry = json.loads(line)
                    point_id = entry["point_id"]
                    if entry.get("status") == "failed":
                        failures = [dict(f) for f in entry.get("failures", [])]
                        failed[point_id] = failures
                        completed.pop(point_id, None)
                    else:
                        results = [
                            WorkloadResult.from_dict(result)
                            for result in entry["results"]
                        ]
                        completed[point_id] = results
                        failed.pop(point_id, None)
                    retried[point_id] = int(entry.get("retried_pairs", 0))
                    if entry.get("seconds") is not None:
                        seconds[point_id] = float(entry["seconds"])
                except (ValueError, KeyError, TypeError):
                    # Corrupt line: nothing after it can be trusted either,
                    # so stop merging there; the affected points re-run.
                    break
            good_offset += len(raw)
    return completed, failed, retried, seconds, good_offset


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _point_pairs(
    point: SweepPoint,
    cache: TraceCache,
    observability: Optional[ObservabilitySpec] = None,
) -> Tuple[int, Iterator[tuple]]:
    """One point's pair count and its lazy ``run_pairs`` argument tuples
    (:meth:`~repro.api.run.ScenarioMatrix.pairs`), with traces from
    ``cache``.

    Building the point's matrix generates no trace, but it fails a bad name
    or factory param here, as a :class:`SweepError` naming the point; each
    trace is generated when the fan-out reaches its first pair.
    ``observability`` overrides the point scenario's own spec (the CLI's
    ``--metrics-out``/``--timeline-out`` flags); per-pair sink paths are
    prefixed with the point id so a grid's artifacts never collide."""
    try:
        matrix = build_matrix(point.scenario)
    except ScenarioError as exc:
        raise SweepError(
            exc.field, f"(resolving point {point.point_id}) {exc.reason}"
        ) from None

    def trace_for(workload) -> PackedTrace:
        spec = matrix.workload_spec(workload.name)
        requests = matrix.requests_for(workload)
        spec_dict = (
            spec.to_dict() if spec is not None else {"name": workload.name}
        )
        # Params the workload declares replay-only (e.g. the outstanding-
        # miss window) do not shape the trace, so a grid sweeping them
        # still generates one trace.  Opt-in per workload class; unknown
        # workloads keep the conservative full-params signature.
        replay_only = getattr(workload, "replay_only_params", ())
        if replay_only and spec_dict.get("params"):
            spec_dict = {
                **spec_dict,
                "params": {
                    key: value
                    for key, value in spec_dict["params"].items()
                    if key not in replay_only
                },
            }
        signature = workload_signature(spec_dict, matrix.scale.seed, requests)
        return cache.get(signature, workload, matrix.scale.seed, requests)

    return matrix.run_count(), matrix.pairs(
        trace_for,
        observability if observability is not None else matrix.observability,
        prefix=point.point_id,
    )


def _default_output(spec: SweepSpec, directory: Optional[Path]):
    """The effective sinks: explicit spec paths win; a directory fills the
    rest in with standard names so every directory-backed sweep leaves a
    complete artefact set."""
    output = spec.output
    if directory is None:
        return output
    from repro.api.scenario import OutputSpec

    return OutputSpec(
        report=output.report or str(directory / "report.md"),
        json=output.json or str(directory / "results.json"),
        csv=output.csv or str(directory / "results.csv"),
    )


def _axis_names(spec: SweepSpec) -> List[str]:
    return [axis.name for axis in spec.axes]


def _sweep_report(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    """The markdown summary: one long-form row per record."""
    axis_names = _axis_names(spec)
    lines = [f"# Sweep `{spec.name}`", ""]
    if spec.description:
        lines.extend([spec.description, ""])
    lines.append(
        f"{len(records)} records across {len({r.point_id for r in records})} "
        f"points; axes: {', '.join(axis_names) if axis_names else '(none)'}."
    )
    lines.append("")
    record_columns = ["workload", "configuration", "exec us", "bw TB/s", "lat ns", "power W"]
    # An axis named like a record column (``configuration``) shows once, as
    # the record's value.
    shown_axes = [name for name in axis_names if name not in record_columns]
    header = ["point"] + shown_axes + record_columns
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|---" * len(header) + "|")
    for record in records:
        cells = [record.point_id]
        for name in shown_axes:
            value = record.axis_values.get(name)
            cells.append(
                f"{value:g}" if isinstance(value, float) else str(value)
            )
        result = record.result
        cells.extend(
            [
                result.workload,
                result.configuration,
                f"{result.execution_time_s * 1e6:.2f}",
                f"{result.achieved_bandwidth_tbps:.3f}",
                f"{result.average_latency_ns:.1f}",
                f"{result.network_power_w:.2f}",
            ]
        )
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    # Per-axis geomeans and configuration crossovers, then -- for open-loop
    # sweeps (any record carrying an offered load) -- the knee table, and --
    # for coherence-enabled records -- the coherence cost table.
    from repro.sweeps.aggregate import (
        aggregation_report_section,
        coherence_report_section,
    )
    from repro.sweeps.saturation import saturation_report_section

    lines.extend(aggregation_report_section(records, axis_names))
    lines.extend(saturation_report_section(records))
    lines.extend(coherence_report_section(records, axis_names))
    return "\n".join(lines)


def _write_sinks(
    spec: SweepSpec,
    records: Sequence[SweepRecord],
    output,
    written: Dict[str, Path],
    failures: Optional[Dict[str, List[PairFailure]]] = None,
    directory: Optional[Path] = None,
) -> None:
    from repro.api.run import _write_path as prepare

    axis_names = _axis_names(spec)
    if output.report:
        path = prepare(output.report)
        path.write_text(_sweep_report(spec, records), encoding="utf-8")
        written["report"] = path
    if output.json:
        path = prepare(output.json)
        payload = {
            "format": RESULTS_FORMAT,
            "sweep": spec.to_dict(),
            "records": [record.to_dict() for record in records],
        }
        if failures:
            payload["failures"] = {
                point_id: [f.to_dict() for f in fs]
                for point_id, fs in failures.items()
            }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        written["json"] = path
    if output.csv:
        path = prepare(output.csv)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(long_form_columns(axis_names))
            for record in records:
                axis_cells = [
                    value
                    if isinstance(value, (int, float, str, bool))
                    or value is None
                    else json.dumps(value)
                    for value in (
                        record.axis_values.get(name) for name in axis_names
                    )
                ]
                writer.writerow(
                    long_form_row(record.point_id, axis_cells, record.result)
                )
        written["csv"] = path
    if failures:
        # Structured failure sink: one row per broken pair, next to the
        # long-form CSV (or in the sweep directory).
        target = None
        if directory is not None:
            target = directory / "failures.csv"
        elif output.csv:
            target = Path(output.csv).with_suffix(".failures.csv")
        if target is not None:
            path = prepare(str(target))
            with path.open("w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(("point_id",) + FAILURE_CSV_COLUMNS)
                for point_id, fs in failures.items():
                    for f in fs:
                        record = f.to_dict()
                        writer.writerow(
                            [point_id]
                            + [record[col] for col in FAILURE_CSV_COLUMNS]
                        )
            written["failures"] = path


def run_sweep(
    spec: SweepSpec,
    directory: Optional[Union[str, Path]] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    on_point: Optional[
        Callable[[SweepPoint, Tuple[WorkloadResult, ...]], None]
    ] = None,
    trace_cache: Optional[TraceCache] = None,
    resume: bool = True,
    policy: Optional[RetryPolicy] = None,
    observability: Optional[ObservabilitySpec] = None,
) -> SweepRunResult:
    """Execute (or resume) a sweep and return its long-form records.

    ``directory`` enables the on-disk manifest and resume; without it the
    run is ephemeral.  ``jobs`` overrides the
    spec's worker count (``1`` = serial in process, ``0`` = every CPU);
    results are bit-identical across job counts.  ``on_point`` fires after
    each point's results are checkpointed -- the streaming hook, and the
    seam tests use to interrupt a run between points.  ``resume=False``
    discards any previous checkpoints in ``directory`` instead of skipping
    their points.

    ``policy`` is the resilience contract
    (:class:`~repro.harness.resilience.RetryPolicy`): per-pair timeouts,
    worker-crash recovery and bounded retries always apply (the default
    policy recovers crashes); points whose pairs stay broken are
    checkpointed as *failed* entries (and re-run on the next resume) either
    way, then a strict policy (``allow_failures=False``, the default)
    raises :class:`~repro.harness.resilience.PairFailureError` once the
    rest of the grid -- completed points checkpointed and sinks written --
    has landed, while ``allow_failures=True`` returns the partial
    :class:`SweepRunResult` with :attr:`SweepRunResult.failures` filled in.

    ``observability`` overrides every point's telemetry spec (the CLI's
    ``--progress``/``--metrics-out``/``--timeline-out`` path); ``None``
    keeps each point's own ``base.observability``.  Telemetry never enters
    the spec digest, so toggling it resumes the same directory.
    """
    from repro.harness.parallel import run_pairs

    started = time.perf_counter()
    points = expand(spec)
    if not points:
        raise SweepError("axes", "the sweep expands to zero points")
    effective_policy = policy if policy is not None else DEFAULT_POLICY
    directory = Path(directory) if directory is not None else None
    completed: Dict[str, List[WorkloadResult]] = {}
    prior_seconds: Dict[str, float] = {}
    manifest_path = None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        manifest = _read_manifest(directory)
        digest = spec_digest(spec)
        if manifest is not None and resume:
            if manifest.get("spec_sha256") != digest:
                raise SweepError(
                    str(directory / MANIFEST_NAME),
                    f"directory holds a different sweep "
                    f"({manifest.get('name')!r}); resume needs the original "
                    f"spec -- use a fresh directory or pass --fresh to "
                    f"discard the previous run",
                )
            completed, _prior_failed, _prior_retried, prior_seconds, good_offset = (
                _load_completed(directory)
            )
            points_path = directory / POINTS_NAME
            if (
                points_path.exists()
                and points_path.stat().st_size > good_offset
            ):
                # Drop a half-written trailing line so the resumed run's
                # first checkpoint starts on a fresh line.
                with points_path.open("rb+") as handle:
                    handle.truncate(good_offset)
        else:
            (directory / POINTS_NAME).write_text("", encoding="utf-8")
        (directory / MANIFEST_NAME).write_text(
            json.dumps(_manifest_payload(spec, points), indent=2) + "\n",
            encoding="utf-8",
        )
        manifest_path = directory / MANIFEST_NAME
    known_ids = {point.point_id for point in points}
    completed = {
        point_id: results
        for point_id, results in completed.items()
        if point_id in known_ids
    }
    pending = [point for point in points if point.point_id not in completed]
    skipped = [point.point_id for point in points if point.point_id in completed]
    point_seconds: Dict[str, float] = {
        point_id: seconds
        for point_id, seconds in prior_seconds.items()
        if point_id in completed
    }
    if skipped:
        _log.info(
            "resuming sweep: %d of %d points already checkpointed",
            len(skipped), len(points),
        )

    cache = trace_cache if trace_cache is not None else TraceCache()
    spans: List[Tuple[SweepPoint, int]] = []
    streams: List[Iterator[tuple]] = []
    for point in pending:
        count, stream = _point_pairs(point, cache, observability)
        spans.append((point, count))
        streams.append(stream)
    total = sum(count for _point, count in spans)

    fresh: Dict[str, List[WorkloadResult]] = {}
    point_failures: Dict[str, List[PairFailure]] = {}
    retried_total = 0
    effective_jobs = spec.jobs if jobs is None else jobs
    if total:
        base_obs = (
            observability if observability is not None
            else spec.base.observability
        )
        heartbeat = None
        if base_obs is not None and base_obs.progress:
            heartbeat = ProgressReporter(
                total,
                interval_s=base_obs.progress_interval_s,
                label="sweep",
            )
        points_handle = (
            (directory / POINTS_NAME).open("a", encoding="utf-8")
            if directory is not None
            else None
        )
        span_index = 0
        buffer: List[Optional[WorkloadResult]] = []
        buffer_failures: List[PairFailure] = []
        buffer_retries = 0
        buffer_seconds = 0.0

        def checkpoint(entry: Dict) -> None:
            if points_handle is not None:
                points_handle.write(json.dumps(entry, default=repr) + "\n")
                points_handle.flush()

        def collect(
            position: int,
            result: Optional[WorkloadResult],
            failure: Optional[PairFailure],
            attempts: int,
            seconds: float,
            _worker: str,
            _sink_seconds: float,
        ) -> None:
            nonlocal span_index, buffer_retries, retried_total, buffer_seconds
            buffer.append(result)
            buffer_retries += attempts - 1
            retried_total += attempts - 1
            buffer_seconds += seconds
            if failure is not None:
                buffer_failures.append(failure)
            if heartbeat is not None:
                heartbeat.pair_done(
                    failed=failure is not None, retries=attempts - 1
                )
            point, count = spans[span_index]
            if len(buffer) < count:
                return
            results = [r for r in buffer if r is not None]
            failures = list(buffer_failures)
            retried = buffer_retries
            replay_seconds = buffer_seconds
            buffer.clear()
            buffer_failures.clear()
            buffer_retries = 0
            buffer_seconds = 0.0
            span_index += 1
            point_seconds[point.point_id] = replay_seconds
            if failures:
                # Failed point: checkpointed as such (status drives `sweep
                # status` and the failure sinks) and *not* recorded as
                # completed, so the next resume re-runs exactly this point.
                point_failures[point.point_id] = failures
                entry = {
                    "point_id": point.point_id,
                    "axis_values": dict(point.axis_values),
                    "status": "failed",
                    "failures": [f.to_dict() for f in failures],
                    "seconds": replay_seconds,
                }
                if retried:
                    entry["retried_pairs"] = retried
                checkpoint(entry)
                return
            fresh[point.point_id] = results
            entry = {
                "point_id": point.point_id,
                "axis_values": dict(point.axis_values),
                "results": [r.to_dict() for r in results],
                "seconds": replay_seconds,
            }
            if retried:
                entry["retried_pairs"] = retried
            checkpoint(entry)
            if on_point is not None:
                on_point(point, tuple(results))

        try:
            # Failures are always collected per point first (so completed
            # points checkpoint no matter what); strictness is applied after
            # the grid finishes, below.
            run_pairs(
                chain.from_iterable(streams), jobs=effective_jobs,
                progress=progress,
                policy=replace(effective_policy, allow_failures=True),
                on_outcome=collect, count=total,
            )
        finally:
            if points_handle is not None:
                points_handle.close()
            if heartbeat is not None:
                heartbeat.finish()

    by_id = {**completed, **fresh}
    records = [
        SweepRecord(
            point_id=point.point_id,
            axis_values=point.axis_values,
            result=result,
        )
        for point in points
        for result in by_id.get(point.point_id, [])
    ]
    outcome = SweepRunResult(
        spec=spec,
        points=points,
        records=records,
        executed_point_ids=[point.point_id for point in pending],
        skipped_point_ids=skipped,
        wall_clock_seconds=time.perf_counter() - started,
        directory=directory,
        failures=point_failures,
        retried_pairs=retried_total,
    )
    if manifest_path is not None:
        outcome.written["manifest"] = manifest_path
        # Rewrite the manifest with the run's outcome, so the directory is
        # self-describing without parsing the checkpoint log.
        payload = _manifest_payload(spec, points)
        if point_failures:
            payload["failed_point_ids"] = list(point_failures)
        if point_seconds:
            payload["timings"] = {
                "points": dict(point_seconds),
                "wall_clock_seconds": outcome.wall_clock_seconds,
            }
        manifest_path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    _write_sinks(
        spec, records, _default_output(spec, directory), outcome.written,
        failures=point_failures, directory=directory,
    )
    if point_failures and not effective_policy.allow_failures:
        raise PairFailureError(
            [f for failures in point_failures.values() for f in failures]
        )
    return outcome


# ---------------------------------------------------------------------------
# Status
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepStatus:
    """What a sweep directory's manifest says about its progress.

    ``failed_ids`` are points whose latest checkpoint entry is a failure
    record (they re-run on resume, so they also count as pending);
    ``retried_pairs`` / ``quarantined_pairs`` aggregate the resilience
    counters over every point's latest entry.
    """

    name: str
    directory: Path
    point_ids: Tuple[str, ...]
    completed_ids: Tuple[str, ...]
    failed_ids: Tuple[str, ...] = ()
    retried_pairs: int = 0
    quarantined_pairs: int = 0
    #: Replay seconds per checkpointed point (entries that recorded them;
    #: the ``sweep status --timings`` view).
    point_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.point_ids)

    @property
    def pending_ids(self) -> Tuple[str, ...]:
        done = set(self.completed_ids)
        return tuple(pid for pid in self.point_ids if pid not in done)

    @property
    def complete(self) -> bool:
        return not self.pending_ids


def sweep_status(directory: Union[str, Path]) -> SweepStatus:
    """Read a sweep directory's progress without running anything."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest is None:
        raise SweepError(
            str(directory),
            f"no {MANIFEST_NAME} here; is this a sweep --directory?",
        )
    point_ids = tuple(manifest.get("point_ids", []))
    known = set(point_ids)
    completed_points, failed_points, retried, seconds, _good_offset = (
        _load_completed(directory)
    )
    completed = tuple(pid for pid in completed_points if pid in known)
    failed = tuple(pid for pid in failed_points if pid in known)
    quarantined = sum(
        1
        for pid in failed
        for record in failed_points[pid]
        if record.get("quarantined", True)
    )
    return SweepStatus(
        name=str(manifest.get("name", "sweep")),
        directory=directory,
        point_ids=point_ids,
        completed_ids=completed,
        failed_ids=failed,
        retried_pairs=sum(
            count for pid, count in retried.items() if pid in known
        ),
        quarantined_pairs=quarantined,
        point_seconds={
            pid: value for pid, value in seconds.items() if pid in known
        },
    )
