"""On-disk trace files as first-class harness workloads.

The replay engine has always been able to consume externally generated
traces -- ``corona-repro trace convert/info`` exposes the text and packed
binary formats on disk -- but only through hand-written code.
:class:`TraceFileWorkload` closes the gap: it wraps a trace file (either
format) in the small workload protocol the harness expects (``name``,
``window``, ``is_synthetic``, ``generate_packed``), so a
COTSon-style external trace is addressable from scenario files and sweep
specs exactly like the synthetic and SPLASH-2 generators::

    {"workloads": [{"name": "trace-file",
                    "params": {"path": "ocean.trace.bin", "window": 8}}]}

The file's record count is exposed as :attr:`fixed_requests`, which the
evaluation matrices honor instead of the scale tier's synthetic count: by
default the whole file replays regardless of ``--scale``.  A smaller
``num_requests`` (the workload spec's top-level field) truncates the replay
deterministically -- each stored thread keeps a proportional prefix of its
segment, so two runs at the same count replay byte-identical traces.

``seed`` is accepted (the harness passes it uniformly) but ignored: the
trace is fixed data, not a generator.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Optional, Union

from repro.trace.packed import PackedTrace


def truncate_packed(packed: PackedTrace, num_requests: int) -> PackedTrace:
    """The first ``num_requests`` records of ``packed``, spread across its
    threads proportionally.

    Each stored thread keeps a prefix of its segment: ``floor`` of its
    proportional share, with the remaining records granted one each to the
    earliest stored threads that still have spare records.  Deterministic --
    the result depends only on the input trace and the count -- and exact:
    the truncated trace holds precisely ``num_requests`` records whenever
    ``num_requests <= len(packed)``.
    """
    total = packed.total_requests
    if num_requests >= total:
        return packed
    if num_requests < 1:
        raise ValueError(f"request count must be >= 1, got {num_requests}")
    segments = [(start, stop) for _t, _c, start, stop in packed.thread_segments()]
    keep = [(stop - start) * num_requests // total for start, stop in segments]
    shortfall = num_requests - sum(keep)
    for index, (start, stop) in enumerate(segments):
        if shortfall == 0:
            break
        if keep[index] < stop - start:
            keep[index] += 1
            shortfall -= 1
    thread_ids = array("q")
    offsets = array("q", [0])
    meta = array("Q")
    addresses = array("Q")
    gaps = array("d")
    for thread_id, (start, _stop), count in zip(
        packed.thread_ids, segments, keep
    ):
        if count == 0:
            continue
        thread_ids.append(thread_id)
        offsets.append(offsets[-1] + count)
        meta.extend(packed.meta[start:start + count])
        addresses.extend(packed.addresses[start:start + count])
        gaps.extend(packed.gaps[start:start + count])
    return PackedTrace(
        name=packed.name,
        num_clusters=packed.num_clusters,
        threads_per_cluster=packed.threads_per_cluster,
        thread_ids=thread_ids,
        offsets=offsets,
        meta=meta,
        addresses=addresses,
        gaps=gaps,
        description=packed.description,
    )


class TraceFileWorkload:
    """A trace file (text or packed binary) wrapped as a harness workload.

    Parameters
    ----------
    path:
        Trace file in either on-disk format (sniffed by magic bytes).
    name:
        Workload name in traces and reports; defaults to the name stored in
        the file.  Two files storing the same name need distinct ``name``
        params to coexist in one scenario.
    window:
        Per-thread outstanding-miss window during replay (the replay knob an
        external trace cannot carry itself).
    """

    __slots__ = ("path", "window", "name", "_metadata", "_packed")

    #: ``window`` only shapes the replay, never the loaded trace, so the
    #: sweep engine's trace cache ignores it when keying signatures.
    replay_only_params = ("window",)

    def __init__(
        self,
        path: Union[str, Path],
        name: Optional[str] = None,
        window: int = 4,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.path = Path(path)
        self.window = window
        # Construction reads only the header (cheap even for huge traces;
        # sweep engines build a fresh workload per grid point): the columns
        # load lazily on first generate.  ValueError keeps failures inside
        # the workload-factory error contract, so a bad path in a scenario
        # file is reported with its field path instead of a raw traceback.
        from repro.trace.io import read_trace_metadata  # deferred: io imports packed

        try:
            self._metadata = read_trace_metadata(self.path)
        except OSError as exc:
            raise ValueError(f"cannot read trace file: {exc}") from None
        self._packed: Optional[PackedTrace] = None
        self.name = name if name is not None else self._metadata["name"]

    def _load(self) -> PackedTrace:
        if self._packed is None:
            from repro.trace.io import read_trace

            try:
                self._packed = read_trace(self.path)
            except OSError as exc:
                raise ValueError(f"cannot read trace file: {exc}") from None
        return self._packed

    @property
    def is_synthetic(self) -> bool:
        return False

    @property
    def num_clusters(self) -> int:
        return self._metadata["num_clusters"]

    @property
    def threads_per_cluster(self) -> int:
        return self._metadata["threads_per_cluster"]

    @property
    def fixed_requests(self) -> int:
        """The file's record count -- the matrices replay exactly this many
        requests unless the workload spec caps ``num_requests`` lower.
        Header-only for binary traces; text files need one full load."""
        if self._metadata["num_records"] is not None:
            return self._metadata["num_records"]
        return self._load().total_requests

    def generate_packed(
        self, seed: int = 1, num_requests: Optional[int] = None
    ) -> PackedTrace:
        """The file's packed trace (``seed`` is ignored -- fixed data).

        ``num_requests`` below the file's record count truncates
        deterministically (see :func:`truncate_packed`); larger counts clamp
        to the file -- a trace file cannot invent records.
        """
        del seed
        packed = self._load()
        if num_requests is not None and num_requests < packed.total_requests:
            packed = truncate_packed(packed, num_requests)
        if self.name != packed.name:
            packed = PackedTrace(
                name=self.name,
                num_clusters=packed.num_clusters,
                threads_per_cluster=packed.threads_per_cluster,
                thread_ids=packed.thread_ids,
                offsets=packed.offsets,
                meta=packed.meta,
                addresses=packed.addresses,
                gaps=packed.gaps,
                description=packed.description,
            )
        return packed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceFileWorkload({str(self.path)!r}, name={self.name!r}, "
            f"records={self.fixed_requests})"
        )


def trace_file_workload(
    path: Union[str, Path],
    name: Optional[str] = None,
    window: int = 4,
) -> TraceFileWorkload:
    """Factory behind the ``trace-file`` workload-registry entry."""
    return TraceFileWorkload(path=path, name=name, window=window)
