"""Workload and trace generation (Section 4 / Table 3 of the Corona paper).

The paper's methodology is trace driven: a full-system simulator produced
L2-miss traces of 1024-thread runs, and a network simulator replayed them.
This package is the reproduction's stand-in for that first stage.  It
provides:

* :mod:`repro.trace.record` -- the L2-miss trace record (one miss as an
  object, for inspection and the cache hierarchy).
* :mod:`repro.trace.synthetic` -- the paper's four synthetic traffic patterns
  (Uniform, Hot Spot, Tornado, Transpose) plus the Bit Reversal and Neighbor
  extensions, with optional sharing-tagged addresses for coherence-enabled
  replays.
* :mod:`repro.trace.splash2` -- statistical workload models of the eleven
  SPLASH-2 applications, calibrated to the paper's per-benchmark request
  counts and bandwidth classes.
* :mod:`repro.trace.packed` -- the packed columnar trace representation
  (24 bytes per record, zero per-record objects): the only trace form the
  generators build and the replay engine and worker pipeline consume.
* :mod:`repro.trace.io` -- text and packed-binary serialization of traces so
  generated traces can be cached on disk and replayed.
* :mod:`repro.trace.file` -- :class:`TraceFileWorkload`, wrapping an on-disk
  trace (either format) in the workload protocol so externally generated
  traces are scenario- and sweep-addressable (registered as ``trace-file``).
"""

from repro.trace.packed import PackedTrace, PackedTraceBuilder
from repro.trace.record import AccessKind, TraceRecord
from repro.trace.synthetic import (
    SyntheticPattern,
    SyntheticWorkload,
    bit_reversal_workload,
    hot_spot_workload,
    neighbor_workload,
    synthetic_workloads,
    tornado_workload,
    transpose_workload,
    uniform_workload,
)
from repro.trace.splash2 import (
    Splash2Profile,
    Splash2Workload,
    SPLASH2_PROFILES,
    splash2_workload,
    splash2_workloads,
)
from repro.trace.io import (
    read_trace,
    read_trace_binary,
    write_trace,
    write_trace_binary,
)
from repro.trace.file import (
    TraceFileWorkload,
    trace_file_workload,
    truncate_packed,
)

__all__ = [
    "AccessKind",
    "PackedTrace",
    "PackedTraceBuilder",
    "TraceRecord",
    "SyntheticPattern",
    "SyntheticWorkload",
    "uniform_workload",
    "hot_spot_workload",
    "tornado_workload",
    "transpose_workload",
    "bit_reversal_workload",
    "neighbor_workload",
    "synthetic_workloads",
    "Splash2Profile",
    "Splash2Workload",
    "SPLASH2_PROFILES",
    "splash2_workload",
    "splash2_workloads",
    "read_trace",
    "read_trace_binary",
    "write_trace",
    "write_trace_binary",
    "TraceFileWorkload",
    "trace_file_workload",
    "truncate_packed",
]
