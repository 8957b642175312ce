"""Cache and coherence substrate (Sections 3.1.2 and 3.2.2 of the paper).

The Corona evaluation replays L2-*miss* traces, so the caches themselves sit
one level below the network study; they are nonetheless part of the system the
paper describes (per-core L1s, a shared 4 MB 16-way L2 per cluster, a MOESI
directory protocol backed by the optical broadcast bus for invalidations), and
this package implements them functionally:

* :mod:`repro.cache.cache` -- set-associative caches with LRU replacement and
  write-back/write-allocate policies;
* :mod:`repro.cache.coherence` -- a functional MOESI directory protocol,
  including the sharer tracking that generates the broadcast-bus invalidation
  traffic;
* :mod:`repro.cache.hierarchy` -- a cluster's L1/L2 hierarchy, at Table 1's
  geometry, that can turn a raw address trace into the L2-miss stream the
  network simulator consumes.

Outstanding misses are a replay concern: the replayed hubs hold each
cluster's ``cluster.l2_mshrs`` miss registers
(:class:`~repro.cores.hub.Hub`), not this package.
"""

from repro.cache.coherence import CoherenceController
from repro.cache.hierarchy import CacheHierarchy

__all__ = [
    "CoherenceController",
    "CacheHierarchy",
]
