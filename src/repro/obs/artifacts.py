"""Writing observability artifacts (metrics CSV/JSON, timeline JSON).

:meth:`repro.api.run.ScenarioMatrix.pairs` resolves the spec's sink paths
per (configuration, workload) pair *before* the simulator is built -- in
multi-pair runs each pair gets ``<stem>-<config>-<workload><ext>`` (or
substitutes a literal ``{pair}`` placeholder) so pairs never overwrite
each other, and worker processes can write their own artifacts without
shipping sample arrays back.  After a replay, :func:`write_pair_artifacts`
drains the simulator's sampler and recorder into those files.
"""

from __future__ import annotations

import csv
import json
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.results import samples_payload
from repro.obs.metrics import METRIC_COLUMNS
from repro.obs.spec import ObservabilitySpec

METRICS_FORMAT = "corona-metrics/1"
#: Format tag of the run-level artifact manifest (what a run left behind).
ARTIFACTS_FORMAT = "corona-artifacts/1"

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def pair_slug(*parts: str) -> str:
    """A filesystem-safe label for a pair (``XBar/OCM`` -> ``XBar-OCM``)."""
    return "-".join(_SLUG_RE.sub("-", part).strip("-") for part in parts if part)


def pair_path(base: str, slug: str, multi: bool) -> str:
    """Resolve one pair's sink path from the spec's base path.

    A literal ``{pair}`` placeholder is always substituted; otherwise the
    slug is inserted before the extension only when the run has several
    pairs (single-pair runs keep the path exactly as given).
    """
    if "{pair}" in base:
        return base.replace("{pair}", slug)
    if not multi:
        return base
    stem, dot, ext = base.rpartition(".")
    if dot and "/" not in ext and "\\" not in ext:
        return f"{stem}-{slug}.{ext}"
    return f"{base}-{slug}"


def resolve_pair_spec(
    spec: Optional[ObservabilitySpec],
    configuration_name: str,
    workload_name: str,
    multi: bool,
    prefix: str = "",
) -> Optional[ObservabilitySpec]:
    """The spec a single pair's simulator should carry, or ``None``.

    Returns ``None`` when nothing simulation-side is enabled, so the
    replay's default path stays hook-free; otherwise a copy of ``spec``
    with both sink paths resolved for this pair (``prefix`` prepends e.g.
    a sweep point id to the slug).
    """
    if spec is None or not spec.simulation_active:
        return None
    slug = pair_slug(prefix, configuration_name, workload_name)
    return replace(
        spec,
        metrics_path=(
            pair_path(spec.metrics_path, slug, multi) if spec.metrics_path else ""
        ),
        timeline_path=(
            pair_path(spec.timeline_path, slug, multi) if spec.timeline_path else ""
        ),
        samples_path=(
            pair_path(spec.samples_path, slug, multi) if spec.samples_path else ""
        ),
    )


def _open_sink(path: str, newline: Optional[str] = None):
    """Open a telemetry sink for writing, creating parent directories --
    sinks resolve to per-pair paths the user never typed, so a missing
    directory must not kill the replay after it finished."""
    parent = Path(path).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    if newline is None:
        return open(path, "w", encoding="utf-8")
    return open(path, "w", encoding="utf-8", newline=newline)


def write_pair_artifacts(
    simulator, configuration_name: str, workload_name: str
) -> Tuple[Dict[str, str], float]:
    """Write the simulator's collected telemetry to its spec's sinks.

    Returns ``(written, seconds)``: a ``{"metrics"|"timeline"|"samples":
    path}`` mapping of what was produced and the wall-clock cost of writing
    it (charged to the ``sink_write`` phase).
    """
    spec = simulator.observability
    written: Dict[str, str] = {}
    if spec is None:
        return written, 0.0
    started = time.perf_counter()
    sampler = simulator._obs_metrics
    if sampler is not None and spec.metrics_path:
        _write_metrics(
            spec.metrics_path, sampler.rows, configuration_name, workload_name
        )
        written["metrics"] = spec.metrics_path
    recorder = simulator._obs_timeline
    if recorder is not None and spec.timeline_path:
        with _open_sink(spec.timeline_path) as handle:
            json.dump(recorder.trace_events(), handle)
        written["timeline"] = spec.timeline_path
    if spec.samples_path:
        payload = samples_payload(
            configuration_name,
            workload_name,
            latency_s=simulator.stats.latency_samples,
            sojourn_s=simulator._sojourns or (),
        )
        with _open_sink(spec.samples_path) as handle:
            json.dump(payload, handle)
        written["samples"] = spec.samples_path
    return written, time.perf_counter() - started


def _write_metrics(
    path: str, rows, configuration_name: str, workload_name: str
) -> None:
    if path.endswith(".json"):
        payload = {
            "format": METRICS_FORMAT,
            "configuration": configuration_name,
            "workload": workload_name,
            "columns": list(METRIC_COLUMNS),
            "rows": [list(row) for row in rows],
        }
        with _open_sink(path) as handle:
            json.dump(payload, handle)
        return
    with _open_sink(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("configuration", "workload") + METRIC_COLUMNS)
        for row in rows:
            writer.writerow((configuration_name, workload_name) + row)


# ---------------------------------------------------------------------------
# Artifact manifest: what a run left behind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffableArtifact:
    """One file a run produced, as the diff engine sees it.

    ``kind`` names the artifact family (``report``/``csv``/``json`` result
    sinks, per-pair ``metrics``/``timeline``/``samples`` telemetry);
    ``configuration``/``workload`` are set on per-pair artifacts so a loader
    can find, say, the raw-sample file of one (configuration, workload)
    without re-deriving the slugging rules.
    """

    kind: str
    path: str
    configuration: str = ""
    workload: str = ""

    def to_dict(self) -> Dict[str, str]:
        payload = {"kind": self.kind, "path": self.path}
        if self.configuration:
            payload["configuration"] = self.configuration
        if self.workload:
            payload["workload"] = self.workload
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "DiffableArtifact":
        return cls(
            kind=str(data.get("kind", "")),
            path=str(data.get("path", "")),
            configuration=str(data.get("configuration", "")),
            workload=str(data.get("workload", "")),
        )


def pair_artifacts(
    spec: Optional[ObservabilitySpec],
    configuration_name: str,
    workload_name: str,
    multi: bool,
    prefix: str = "",
) -> List[DiffableArtifact]:
    """The telemetry artifacts one pair's replay leaves behind (by path
    resolution only -- the same rules the pairs were written with)."""
    resolved = resolve_pair_spec(
        spec, configuration_name, workload_name, multi, prefix=prefix
    )
    if resolved is None:
        return []
    artifacts = []
    for kind, path in (
        ("metrics", resolved.metrics_path),
        ("timeline", resolved.timeline_path),
        ("samples", resolved.samples_path),
    ):
        if path:
            artifacts.append(
                DiffableArtifact(
                    kind=kind,
                    path=path,
                    configuration=configuration_name,
                    workload=workload_name,
                )
            )
    return artifacts


def write_artifact_manifest(
    path: Union[str, Path],
    artifacts: Sequence[DiffableArtifact],
    run_name: str = "",
) -> Path:
    """Write the ``corona-artifacts/1`` manifest listing a run's outputs."""
    target = Path(path)
    payload = {
        "format": ARTIFACTS_FORMAT,
        "name": run_name,
        "artifacts": [artifact.to_dict() for artifact in artifacts],
    }
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return target


def load_artifact_manifest(path: Union[str, Path]) -> List[DiffableArtifact]:
    """Parse an artifact manifest, validating its format tag."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if (
        not isinstance(payload, Mapping)
        or payload.get("format") != ARTIFACTS_FORMAT
    ):
        raise ValueError(
            f"{path}: not an artifact manifest (expected format "
            f"{ARTIFACTS_FORMAT!r}, got {payload.get('format')!r})"
        )
    return [
        DiffableArtifact.from_dict(entry)
        for entry in payload.get("artifacts", [])
        if isinstance(entry, Mapping)
    ]


def artifact_manifest_path(json_sink: Union[str, Path]) -> Path:
    """Where a run's artifact manifest lives, derived from its JSON sink
    (``results.json`` -> ``results.artifacts.json``)."""
    return Path(json_sink).with_suffix(".artifacts.json")
