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


@dataclass(slots=True)
class Hub:
    """The per-cluster message hub.

    Parameters
    ----------
    cluster_id:
        The cluster this hub serves.
    queue_depth:
        Injection-queue capacity toward the interconnect (messages).
    forwarding_latency_s:
        Store-and-forward latency through the hub for each message.
    mshrs:
        Outstanding-miss registers shared by the cluster's L2; misses beyond
        this limit wait before they can even enter the hub.
    """

    cluster_id: int
    queue_depth: int = 64
    forwarding_latency_s: float = 0.4e-9
    mshrs: int = 64
    injection_queue: BoundedQueue = field(init=False, repr=False)
    mshr_pool: TokenPool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.forwarding_latency_s < 0:
            raise ValueError("hub latency must be non-negative")
        self.injection_queue = BoundedQueue(
            name=f"hub{self.cluster_id}-inject", capacity=self.queue_depth
        )
        self.mshr_pool = TokenPool(name=f"hub{self.cluster_id}-mshrs", tokens=self.mshrs)
