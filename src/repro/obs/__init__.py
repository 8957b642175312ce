"""Opt-in observability: simulated-time metrics, timelines, and profiling.

Three planes, all off by default (a run that does not ask for telemetry is
bit-identical to one built before this package existed):

* **Simulated time** -- :class:`~repro.obs.metrics.MetricsSampler` ticks on
  the event calendar and emits long-form resource time series;
  :class:`~repro.obs.timeline.TimelineRecorder` emits per-transaction span
  groups and fault markers as Chrome ``trace_event`` JSON (Perfetto).
* **Wall clock** -- phase/per-worker timings collected by the runners and
  the :class:`~repro.obs.progress.ProgressReporter` heartbeat on stderr.
* **Surface** -- :class:`~repro.obs.spec.ObservabilitySpec`, the frozen
  Scenario-tree node behind the ``--progress``/``--metrics-out``/
  ``--timeline-out`` CLI flags, plus the stdlib logging wiring of
  :mod:`repro.obs.log`.
"""

from repro.obs.artifacts import (
    DiffableArtifact,
    artifact_manifest_path,
    load_artifact_manifest,
    pair_artifacts,
    pair_path,
    pair_slug,
    resolve_pair_spec,
    write_artifact_manifest,
    write_pair_artifacts,
)
from repro.obs.log import (
    configure_logging,
    configure_worker_logging,
    get_logger,
)
from repro.obs.metrics import METRIC_COLUMNS, MetricsSampler
from repro.obs.progress import ProgressReporter
from repro.obs.spec import ObservabilitySpec
from repro.obs.timeline import TimelineRecorder

__all__ = [
    "METRIC_COLUMNS",
    "DiffableArtifact",
    "MetricsSampler",
    "ObservabilitySpec",
    "ProgressReporter",
    "TimelineRecorder",
    "artifact_manifest_path",
    "configure_logging",
    "configure_worker_logging",
    "get_logger",
    "load_artifact_manifest",
    "pair_artifacts",
    "pair_path",
    "pair_slug",
    "resolve_pair_spec",
    "write_artifact_manifest",
    "write_pair_artifacts",
]
