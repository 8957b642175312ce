"""Cluster hub model.

The hub routes message traffic between the L2 cache, directory, memory
controller, network interface, optical broadcast bus and optical crossbar
(Figure 2b).  For the system study its relevant behaviours are a small
store-and-forward latency and a finite injection queue toward the
interconnect, which is where flow-control back-pressure appears when a
destination is saturated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.resources import BoundedQueue, TokenPool

#: Store-and-forward latency of a message through a hub: 0.4 ns (2 clocks).
FORWARDING_LATENCY_S = 0.4e-9


@dataclass(slots=True)
class Hub:
    """The per-cluster message hub.

    Parameters
    ----------
    cluster_id:
        The cluster this hub serves.
    queue_depth:
        Injection-queue capacity toward the interconnect (messages):
        ``ClusterParameters.hub_queue_depth``.
    mshrs:
        Outstanding-miss registers shared by the cluster's L2; misses beyond
        this limit wait before they can even enter the hub:
        ``ClusterParameters.l2_mshrs``.
    """

    cluster_id: int
    queue_depth: int
    mshrs: int
    #: :data:`FORWARDING_LATENCY_S`, read by the replay for each message.
    forwarding_latency_s: float = field(default=FORWARDING_LATENCY_S, init=False)
    injection_queue: BoundedQueue = field(init=False, repr=False)
    mshr_pool: TokenPool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.injection_queue = BoundedQueue(
            name=f"hub{self.cluster_id}-inject", capacity=self.queue_depth
        )
        self.mshr_pool = TokenPool(name=f"hub{self.cluster_id}-mshrs", tokens=self.mshrs)
