"""Core, cluster and hub models (Section 3.1 of the Corona paper).

The paper's cores are dual-issue, in-order, four-way multithreaded, running at
5 GHz with 4-wide 64-bit FP SIMD and fused multiply-add -- 256 of them in 64
four-core clusters, for 10 teraflops peak.  This package models what the
system study needs from them:

* the :class:`~repro.cores.core.Core` and :class:`~repro.cores.cluster.Cluster`
  structural/configuration view (threads, caches, peak flops, area and power
  estimates scaled from Penryn/Silverthorne as the paper describes);
* the :class:`~repro.cores.hub.Hub` that routes traffic between the L2,
  directory, memory controller, network interface and the optical interconnect.
"""

from repro.cores.core import Core, CoreParameters
from repro.cores.cluster import Cluster, ClusterParameters
from repro.cores.hub import Hub

__all__ = [
    "Core",
    "CoreParameters",
    "Cluster",
    "ClusterParameters",
    "Hub",
]
