"""The frozen observability specification.

An :class:`ObservabilitySpec` describes what telemetry a run emits, as a
JSON-round-tripping node of the Scenario tree (``"observability": {...}`` in
a scenario file).  Everything defaults to *off*: a default spec records
nothing, installs nothing into the simulator, and an ``observability: null``
scenario replays bit-identically to one that never mentions observability.

Three planes hang off this spec:

``metrics_interval_ns`` / ``metrics_path``
    The simulated-time plane's :class:`~repro.obs.metrics.MetricsSampler`:
    resource-utilization time series sampled every ``metrics_interval_ns``
    of *simulated* time, written as long-form CSV (or JSON, by extension)
    to ``metrics_path``.
``timeline_path`` / ``timeline_limit``
    The :class:`~repro.obs.timeline.TimelineRecorder`: per-transaction spans
    and fault events in Chrome ``trace_event`` JSON (loadable in Perfetto),
    capped at ``timeline_limit`` span groups per replay.
``progress`` / ``progress_interval_s``
    The wall-clock plane's harness heartbeat (pairs done, pairs/s, ETA) on
    stderr, also reachable via the ``--progress`` CLI flag.

:mod:`repro.spec` reads and writes the spec like every other node: a bad or
unknown field raises :class:`~repro.spec.ScenarioError` naming it
(``observability.timeline_limit`` in a scenario file).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.spec import ScenarioError, check_fields, read, write


@dataclass(frozen=True)
class ObservabilitySpec:
    """Telemetry switches for one run (everything off by default)."""

    #: Simulated-time sampling period of the metrics plane, in nanoseconds.
    metrics_interval_ns: float = 1000.0
    #: Sink for the resource time series; empty disables the sampler.
    #: ``.json`` writes a JSON document, anything else long-form CSV.  In
    #: multi-pair runs each pair writes ``<stem>-<config>-<workload><ext>``
    #: (or substitutes a literal ``{pair}`` placeholder).
    metrics_path: str = ""
    #: Sink for the Chrome ``trace_event`` timeline; empty disables it.
    timeline_path: str = ""
    #: Sink for the raw per-transaction latency (and open-loop sojourn)
    #: samples as ``corona-samples/1`` JSON; empty disables it.  The replay
    #: always collects these samples, so exporting them changes no result;
    #: the diff engine reads them for exact percentile/KS comparison.
    samples_path: str = ""
    #: Per-transaction span groups recorded before the timeline truncates
    #: (counters and fault events keep flowing; truncation is noted in the
    #: trace metadata).
    timeline_limit: int = 100_000
    #: Emit the harness heartbeat (pairs done, pairs/s, ETA) on stderr.
    progress: bool = False
    #: Minimum wall-clock seconds between heartbeat lines.
    progress_interval_s: float = 2.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.metrics_interval_ns <= 0:
            raise ScenarioError(
                "metrics_interval_ns",
                f"must be > 0, got {self.metrics_interval_ns!r}",
            )
        if self.timeline_limit < 0:
            raise ScenarioError(
                "timeline_limit", f"must be >= 0, got {self.timeline_limit}"
            )
        if self.progress_interval_s <= 0:
            raise ScenarioError(
                "progress_interval_s",
                f"must be > 0, got {self.progress_interval_s!r}",
            )

    # -- activity predicates -------------------------------------------------
    @property
    def metrics_enabled(self) -> bool:
        return bool(self.metrics_path)

    @property
    def timeline_enabled(self) -> bool:
        return bool(self.timeline_path)

    @property
    def samples_enabled(self) -> bool:
        return bool(self.samples_path)

    @property
    def simulation_active(self) -> bool:
        """Whether the replay carries any per-pair telemetry at all.

        A samples-only spec installs nothing into the event loop (the stats
        object always collects raw samples); it still counts as active so
        the runners resolve its per-pair sink path and drain it.
        """
        return (
            self.metrics_enabled or self.timeline_enabled or self.samples_enabled
        )

    @property
    def any_active(self) -> bool:
        return self.simulation_active or self.progress

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """All fields as a JSON-clean mapping (exact round-trip)."""
        return write(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ObservabilitySpec":
        """Parse a spec mapping, raising :class:`ScenarioError` naming any
        bad or unknown field."""
        return read(cls, data)
