"""Coherence traffic subsystem: sharing-aware traces + timed MOESI actions.

Ties three previously independent pieces into the replay engine:

* :mod:`repro.cache.coherence` -- the functional MOESI directory protocol;
* :mod:`repro.network.broadcast` -- the optical broadcast bus that delivers
  invalidations in one message on photonic configurations;
* :mod:`repro.core.system` -- the trace-driven transaction engine, which
  consults the home directory for every *shared* miss and schedules the
  resulting cache-to-cache forwards, invalidation fan-outs and dirty
  writebacks as resource-reserving events.

See :class:`~repro.coherence.sharing.SharingProfile` for tagging a fraction
of a synthetic workload's misses as shared, and
:class:`~repro.coherence.engine.CoherenceConfig` for enabling the timed
protocol on a :class:`~repro.core.system.SystemSimulator`.
"""

from repro.coherence.engine import CoherenceConfig, CoherenceEngine, CoherentMiss
from repro.coherence.sharing import SharingProfile, home_for_line, shared_line_address

__all__ = [
    "CoherenceConfig",
    "CoherenceEngine",
    "CoherentMiss",
    "SharingProfile",
    "home_for_line",
    "shared_line_address",
]
