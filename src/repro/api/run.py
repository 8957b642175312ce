"""``run(scenario) -> ScenarioResult``: the one stable execution entry point.

Everything the CLI (and user code) runs goes through here: the scenario's
names are resolved against the registries into a :class:`ScenarioMatrix`,
and :func:`~repro.harness.parallel.run_pairs` -- the one replay loop, in
process at ``jobs=1`` and on a worker pool otherwise -- replays the pairs
the matrix yields.

Per-pair :class:`~repro.core.results.WorkloadResult`\\ s stream to the
``on_result`` callback as they finish (submission order), and the finished
run is exported to every sink the scenario's ``output`` block names: the
markdown report plus JSON/CSV result files carrying every stored field.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.api import registry
from repro.api.scenario import Scenario, ScenarioError, WorkloadSpec
from repro.core.config import CoronaConfig
from repro.core.results import (
    RESULT_CSV_COLUMNS,
    WorkloadResult,
    results_to_csv_rows,
)
from repro.faults import FaultSpec
from repro.harness.experiments import ExperimentScale
from repro.harness.parallel import effective_jobs, run_pairs, timed
from repro.obs.artifacts import resolve_pair_spec
from repro.obs.spec import ObservabilitySpec
from repro.harness.report import ReproductionReport
from repro.harness.resilience import PairFailure, RetryPolicy
from repro.trace.packed import PackedTrace

#: Format tag written into JSON result files.
RESULTS_FORMAT = "corona-results/1"


class ScenarioMatrix:
    """A scenario resolved against the registries: the (configuration x
    workload) matrix of one run.

    Construction builds every configuration and workload (no trace
    generation), so a bad factory param, a duplicate effective workload
    name or a cluster-count mismatch fails with a field path before any
    replay.  :meth:`pairs` yields the :func:`~repro.harness.parallel.run_pairs`
    argument tuples; :class:`~repro.harness.report.ReproductionReport`
    reads the names and the scale.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.scale: ExperimentScale = scenario.scale.resolve()
        self.coherence = scenario.coherence
        #: ``None`` (fault-free, bit-identical path) or the scenario's
        #: :class:`~repro.faults.FaultSpec`, installed into every simulator.
        self.faults: Optional[FaultSpec] = scenario.faults
        #: ``None`` (zero-overhead path) or the scenario's telemetry spec;
        #: :meth:`pairs` resolves per-pair sink paths from it.
        self.observability: Optional[ObservabilitySpec] = scenario.observability
        #: None when the scenario carries no overrides, so every replay keeps
        #: building from the CORONA_DEFAULT singleton (bit-identical path).
        self.corona_config: Optional[CoronaConfig] = (
            scenario.system.corona_config() if scenario.system.overrides else None
        )
        self.configuration_names: Sequence[str] = list(
            scenario.system.configurations
        )
        self._configurations = [
            self._build_configuration(index, name)
            for index, name in enumerate(self.configuration_names)
        ]
        specs = list(scenario.workloads) or [
            WorkloadSpec(name=name) for name in registry.WORKLOADS.default_names()
        ]
        self._workloads = [
            self._build_workload(index, spec) for index, spec in enumerate(specs)
        ]
        self._spec_by_name: Dict[str, WorkloadSpec] = {}
        for index, (spec, workload) in enumerate(zip(specs, self._workloads)):
            if workload.name in self._spec_by_name:
                raise ScenarioError(
                    f"workloads[{index}]",
                    f"duplicate workload name {workload.name!r}; rename one "
                    f"via its params ('name' for synthetic, 'label' for "
                    f"SPLASH-2 workloads)",
                )
            self._spec_by_name[workload.name] = spec

    def _build_configuration(self, index: int, name: str):
        try:
            configuration = registry.build_configuration(name)
        except registry.RegistryError as exc:
            raise ScenarioError(
                f"system.configurations[{index}]", str(exc)
            ) from None
        if configuration.name != name:
            raise ScenarioError(
                f"system.configurations[{index}]",
                f"registry entry {name!r} built a configuration named "
                f"{configuration.name!r}; the names must match so parallel "
                f"workers and report columns resolve consistently",
            )
        return configuration

    def _build_workload(self, index: int, spec: WorkloadSpec):
        if "num_requests" in spec.params:
            # A factory-level num_requests would be silently out-ranked by
            # requests_for's spec/scale logic; insist on the spec field.
            raise ScenarioError(
                f"workloads[{index}].params.num_requests",
                "set the workload's top-level \"num_requests\" field "
                "instead; params.num_requests would not scale the run",
            )
        try:
            workload = registry.build_workload(
                spec.name, **spec.factory_params()
            )
        except registry.RegistryError as exc:
            raise ScenarioError(f"workloads[{index}].name", str(exc)) from None
        except (TypeError, ValueError, KeyError) as exc:
            raise ScenarioError(f"workloads[{index}].params", str(exc)) from None
        if not callable(getattr(workload, "generate_packed", None)):
            raise ScenarioError(
                f"workloads[{index}].name",
                f"workload {spec.name!r} built a {type(workload).__name__} "
                f"without generate_packed(seed, num_requests)",
            )
        expected_clusters = (
            self.corona_config.num_clusters if self.corona_config else None
        )
        actual_clusters = getattr(workload, "num_clusters", None)
        if (
            expected_clusters is not None
            and actual_clusters is not None
            and actual_clusters != expected_clusters
        ):
            raise ScenarioError(
                f"workloads[{index}].params",
                f"workload spans {actual_clusters} clusters but "
                f"system.overrides sets num_clusters={expected_clusters}; "
                f"add \"num_clusters\": {expected_clusters} to the "
                f"workload's params",
            )
        return workload

    def workloads(self) -> List:
        return list(self._workloads)

    def workload_names(self) -> List[str]:
        return [w.name for w in self._workloads]

    def synthetic_names(self) -> List[str]:
        return [
            w.name for w in self._workloads if getattr(w, "is_synthetic", False)
        ]

    def splash_names(self) -> List[str]:
        return [
            w.name
            for w in self._workloads
            if not getattr(w, "is_synthetic", False)
        ]

    def configurations(self) -> List:
        return list(self._configurations)

    def requests_for(self, workload) -> int:
        spec = self._spec_by_name.get(workload.name)
        if spec is not None and spec.num_requests is not None:
            return spec.num_requests
        fixed = getattr(workload, "fixed_requests", None)
        if fixed is not None:
            # Trace-file workloads replay their whole file by default; the
            # scale tier cannot grow or shrink fixed on-disk data.
            return fixed
        if getattr(workload, "is_synthetic", False):
            return self.scale.synthetic_requests
        profile = getattr(workload, "profile", None)
        paper_requests = getattr(profile, "paper_requests", None)
        if paper_requests is not None:
            return self.scale.splash_requests(paper_requests)
        return self.scale.synthetic_requests

    def workload_spec(self, workload_name: str) -> Optional[WorkloadSpec]:
        """The spec an effective workload name was built from (None for
        names outside this matrix) -- the sweep engine keys its cross-point
        trace cache on the spec's canonical dict form."""
        return self._spec_by_name.get(workload_name)

    def run_count(self) -> int:
        return len(self._configurations) * len(self._workloads)

    def generate(self, workload) -> PackedTrace:
        """``workload``'s packed trace at this matrix's seed and request
        count."""
        return workload.generate_packed(
            seed=self.scale.seed, num_requests=self.requests_for(workload)
        )

    def pairs(
        self,
        trace_for: Callable[[object], PackedTrace],
        observability: Optional[ObservabilitySpec],
        prefix: str = "",
    ) -> Iterator[tuple]:
        """Lazily yield the :func:`~repro.harness.parallel.run_pairs`
        tuples, workloads outer and configurations inner.

        ``trace_for(workload)`` supplies each workload's trace when its
        first pair is requested.  Per-pair sink paths are resolved here, in
        the parent, from ``observability``: slugged with ``prefix`` (e.g. a
        sweep point id) and the pair whenever more than one pair can write
        to the spec's paths, which a prefix implies.
        """
        multi = bool(prefix) or self.run_count() > 1
        modules = tuple(self.scenario.modules)
        for workload in self._workloads:
            trace = trace_for(workload)
            window = getattr(workload, "window", 4)
            for name in self.configuration_names:
                yield (
                    name,
                    trace,
                    window,
                    self.coherence,
                    self.corona_config,
                    modules,
                    self.faults,
                    resolve_pair_spec(
                        observability, name, workload.name, multi, prefix=prefix
                    ),
                )


def build_matrix(scenario: Scenario) -> ScenarioMatrix:
    """Resolve ``scenario`` against the registries (imports its modules)."""
    scenario.import_modules()
    return ScenarioMatrix(scenario)


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    results: List[WorkloadResult]
    report: ReproductionReport
    wall_clock_seconds: float = 0.0
    written: Dict[str, Path] = field(default_factory=dict)
    #: Pairs that failed after retries (``allow_failures`` runs only; a
    #: strict run raises instead of producing a result).
    failures: List[PairFailure] = field(default_factory=list)
    #: Wall-clock profiling: ``phases`` (seconds per harness phase),
    #: ``workers`` (replay seconds per worker process) and ``pairs``
    #: (per-pair replay seconds).  Collected on every run -- a handful of
    #: ``perf_counter`` reads -- and persisted into the JSON sink.
    timings: Dict[str, object] = field(default_factory=dict)

    def to_markdown(self) -> str:
        return self.report.to_markdown()

    def to_json_dict(self) -> Dict[str, object]:
        """The JSON result-sink payload (scenario + every result field)."""
        payload = {
            "format": RESULTS_FORMAT,
            "scenario": self.scenario.to_dict(),
            "wall_clock_seconds": self.wall_clock_seconds,
            "results": [result.to_dict() for result in self.results],
        }
        if self.failures:
            payload["failures"] = [f.to_dict() for f in self.failures]
        if self.timings:
            payload["timings"] = self.timings
        return payload


def _write_path(raw: str) -> Path:
    path = Path(raw)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_outputs(
    result: ScenarioResult, matrix: Optional[ScenarioMatrix] = None
) -> None:
    # The JSON sink is written last so its "timings" section can include the
    # report/CSV write time (it cannot contain its own).
    output = result.scenario.output
    started = time.perf_counter()
    if output.report:
        path = _write_path(output.report)
        path.write_text(result.to_markdown(), encoding="utf-8")
        result.written["report"] = path
    if output.csv:
        path = _write_path(output.csv)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RESULT_CSV_COLUMNS)
            writer.writerows(results_to_csv_rows(result.results))
        result.written["csv"] = path
    if result.timings and (output.report or output.csv):
        phases = result.timings.setdefault("phases", {})
        phases["sink_write"] = (
            phases.get("sink_write", 0.0) + time.perf_counter() - started
        )
    if output.json:
        path = _write_path(output.json)
        path.write_text(
            json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
        result.written["json"] = path
        _write_artifact_manifest(result, matrix, path)


def _write_artifact_manifest(
    result: ScenarioResult, matrix: Optional[ScenarioMatrix], json_sink: Path
) -> None:
    """The ``corona-artifacts/1`` manifest of everything the run left behind:
    result sinks plus each pair's telemetry artifacts, resolved with the same
    slugging :meth:`ScenarioMatrix.pairs` wrote them with -- how
    `corona-repro diff` finds the raw latency samples of a (configuration,
    workload) pair."""
    from repro.obs.artifacts import (
        DiffableArtifact,
        artifact_manifest_path,
        pair_artifacts,
        write_artifact_manifest,
    )

    artifacts = [
        DiffableArtifact(kind=kind, path=str(path))
        for kind, path in sorted(result.written.items())
    ]
    observability = matrix.observability if matrix is not None else None
    if observability is not None and observability.simulation_active:
        multi = matrix.run_count() > 1
        for replay in result.results:
            artifacts.extend(
                pair_artifacts(
                    observability, replay.configuration, replay.workload, multi
                )
            )
    manifest = write_artifact_manifest(
        artifact_manifest_path(json_sink),
        artifacts,
        run_name=result.scenario.name,
    )
    result.written["artifacts"] = manifest


def run(
    scenario: Scenario,
    *,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    on_result: Optional[Callable[[WorkloadResult], None]] = None,
    policy: Optional[RetryPolicy] = None,
) -> ScenarioResult:
    """Execute ``scenario`` and return its results, report and sinks.

    ``jobs`` overrides the scenario's worker count (``1`` = in process,
    ``0`` = every CPU).  ``on_result`` receives each pair's
    :class:`WorkloadResult` the moment it completes, in submission order --
    the streaming hook for dashboards and long sweeps.  Results are
    bit-identical for every ``jobs`` value.

    ``policy`` is the resilience contract
    (:class:`~repro.harness.resilience.RetryPolicy`): per-pair timeouts
    (pool runs), bounded retries with backoff, and -- under
    ``allow_failures`` -- partial results with the failed pairs recorded
    on :attr:`ScenarioResult.failures` instead of an exception.  ``None``
    is the default policy: crashes are recovered and the first pair that
    stays broken aborts the run.
    """
    matrix = build_matrix(scenario)
    jobs = scenario.jobs if jobs is None else jobs
    count = matrix.run_count()
    heartbeat = None
    obs_spec = matrix.observability
    if obs_spec is not None and obs_spec.progress:
        from repro.obs.progress import ProgressReporter

        heartbeat = ProgressReporter(
            count, interval_s=obs_spec.progress_interval_s, label="run"
        )
    results: List[WorkloadResult] = []
    failures: List[PairFailure] = []
    # Wall-clock seconds per harness phase: trace_generation, replay
    # (summed per-pair replay seconds), sink_write (telemetry artifacts,
    # when enabled) and dispatch (the fan-out wall clock beyond generation
    # and each worker's share of replays and sink writes -- simulator
    # construction, trace shipping, pipes, result collection).
    phases: Dict[str, float] = {}
    workers: Dict[str, float] = {}
    pair_seconds: Dict[tuple, float] = {}

    def record(
        _position, replayed, failure, attempts, seconds, worker, sink_seconds
    ) -> None:
        phases["replay"] = phases.get("replay", 0.0) + seconds
        if sink_seconds:
            phases["sink_write"] = phases.get("sink_write", 0.0) + sink_seconds
        if heartbeat is not None:
            heartbeat.pair_done(failed=failure is not None, retries=attempts - 1)
        if failure is not None:
            failures.append(failure)
            return
        results.append(replayed)
        pair_seconds[(replayed.configuration, replayed.workload)] = seconds
        workers[worker] = workers.get(worker, 0.0) + seconds

    started = time.perf_counter()
    try:
        run_pairs(
            matrix.pairs(
                timed(matrix.generate, phases, "trace_generation"),
                matrix.observability,
            ),
            jobs=jobs,
            progress=progress,
            on_result=on_result,
            policy=policy,
            on_outcome=record,
            count=count,
        )
    finally:
        if heartbeat is not None:
            heartbeat.finish()
    wall_clock = time.perf_counter() - started
    # Generation runs lazily inside the fan-out window, and each worker
    # spends its share of the replays and sink writes there too; dispatch
    # is the rest.
    busy = (
        phases.get("replay", 0.0) + phases.get("sink_write", 0.0)
    ) / effective_jobs(jobs, count)
    phases["dispatch"] = max(
        0.0, wall_clock - busy - phases.get("trace_generation", 0.0)
    )
    report_results = list(results)
    if failures:
        # Partial matrix: figures normalize per workload against a baseline
        # configuration, so workloads missing any configuration's result are
        # dropped from the *report* (the result list and sinks keep every
        # completed pair).
        expected = set(matrix.configuration_names)
        covered: Dict[str, set] = {}
        for res in report_results:
            covered.setdefault(res.workload, set()).add(res.configuration)
        report_results = [
            res
            for res in report_results
            if covered.get(res.workload, set()) >= expected
        ]
    report = ReproductionReport(
        matrix=matrix,
        results=report_results,
        # Summed in sorted order, so the total is a pure function of the
        # per-pair timings.
        wall_clock_seconds=sum(sorted(pair_seconds.values())),
    )
    timings: Dict[str, object] = {"phases": phases}
    if workers:
        timings["workers"] = workers
    if pair_seconds:
        timings["pairs"] = [
            {"configuration": pair[0], "workload": pair[1], "seconds": seconds}
            for pair, seconds in pair_seconds.items()
        ]
    result = ScenarioResult(
        scenario=scenario,
        results=results,
        report=report,
        wall_clock_seconds=wall_clock,
        failures=failures,
        timings=timings,
    )
    _write_outputs(result, matrix)
    return result
