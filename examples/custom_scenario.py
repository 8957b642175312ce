#!/usr/bin/env python3
"""Scenario API: register a custom configuration and workload, then run them.

Demonstrates the three pieces of :mod:`repro.api` end to end:

1. ``@register_configuration`` adds **XBar/ECM** -- the optical crossbar
   paired with *electrically* connected memory, a design point the paper
   never evaluates (its five systems are seeded in the registry; this one
   exists nowhere in the built-in tables).  It isolates how much of
   Corona's win comes from the crossbar alone when memory bandwidth stays
   at package-pin levels.
2. ``@register_workload`` adds **Shuffle** -- the perfect-shuffle
   permutation (cluster ``b_{n-1}..b_0`` sends to ``b_{n-2}..b_0 b_{n-1}``),
   a classic butterfly-network stressor that is not among the built-in six
   synthetic patterns.
3. A :class:`~repro.api.Scenario` built as plain data runs both against two
   paper baselines through the single :func:`repro.api.run` entry point,
   streaming per-pair results as they finish.

The same scenario works from a JSON file: put these registrations in an
importable module, list it under the scenario's ``"modules"``, and
``corona-repro run scenario.json`` resolves the custom names -- in worker
processes too.

Run with::

    python examples/custom_scenario.py [num_requests]
"""

from __future__ import annotations

import random
import sys

from repro.api import (
    Scenario,
    ScaleSpec,
    SystemSpec,
    WorkloadSpec,
    register_configuration,
    register_workload,
    run,
)
from repro.core.configs import SystemConfiguration, crossbar_network, ecm_memory
from repro.trace.gaps import draw_gap
from repro.trace.packed import PackedTrace, PackedTraceBuilder


# ---------------------------------------------------------------------------
# 1. A configuration the paper never built: optical crossbar, electrical
#    memory.
# ---------------------------------------------------------------------------

@register_configuration("XBar/ECM")
def xbar_ecm() -> SystemConfiguration:
    """Optical crossbar on-stack, electrically connected memory off-stack."""
    return SystemConfiguration(
        name="XBar/ECM",
        network_name="XBar",
        memory_name="ECM",
        network_factory=crossbar_network,
        memory_factory=ecm_memory,
        has_broadcast_bus=True,
    )


# ---------------------------------------------------------------------------
# 2. A workload pattern outside the built-in six: the perfect shuffle.
# ---------------------------------------------------------------------------

class ShuffleWorkload:
    """Perfect-shuffle permutation traffic (butterfly-stage communication).

    Implements the small protocol the harness expects from a workload:
    ``name``, ``window``, ``is_synthetic`` and ``generate_packed(seed,
    num_requests)``, which appends each miss straight into the packed
    trace columns through a :class:`PackedTraceBuilder`.
    """

    def __init__(
        self,
        name: str = "Shuffle",
        num_clusters: int = 64,
        threads_per_cluster: int = 16,
        mean_gap_cycles: float = 40.0,
        write_fraction: float = 0.3,
        window: int = 8,
    ) -> None:
        bits = num_clusters.bit_length() - 1
        if 1 << bits != num_clusters:
            raise ValueError(
                f"the shuffle needs a power-of-two cluster count, got "
                f"{num_clusters}"
            )
        self.name = name
        self.num_clusters = num_clusters
        self.threads_per_cluster = threads_per_cluster
        self.mean_gap_cycles = mean_gap_cycles
        self.write_fraction = write_fraction
        self.window = window
        self._bits = bits

    is_synthetic = True

    def destination(self, cluster: int) -> int:
        """Rotate the cluster id's bits left by one (the perfect shuffle)."""
        high = (cluster >> (self._bits - 1)) & 1
        return ((cluster << 1) & (self.num_clusters - 1)) | high

    def generate_packed(
        self, seed: int = 1, num_requests: int = 10_000
    ) -> PackedTrace:
        rng = random.Random(seed)
        builder = PackedTraceBuilder(
            name=self.name,
            num_clusters=self.num_clusters,
            threads_per_cluster=self.threads_per_cluster,
            description="perfect-shuffle permutation traffic",
        )
        total_threads = self.num_clusters * self.threads_per_cluster
        base, remainder = divmod(num_requests, total_threads)
        stagger = 8.0 * self.mean_gap_cycles
        line = 0
        for thread_id in range(total_threads):
            home = self.destination(thread_id // self.threads_per_cluster)
            for index in range(base + (1 if thread_id < remainder else 0)):
                gap = draw_gap(rng, self.mean_gap_cycles)
                if index == 0:
                    gap += rng.uniform(0.0, stagger)
                is_write = rng.random() < self.write_fraction
                address = (home << 26) | ((line & 0xFFFFF) << 6)
                builder.append(thread_id, home, is_write, False, address, gap)
                line += 1
        return builder.build()


register_workload("Shuffle")(ShuffleWorkload)


# ---------------------------------------------------------------------------
# 3. A scenario over the custom entries, run through the stable entry point.
# ---------------------------------------------------------------------------

def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000

    scenario = Scenario(
        name="custom-demo",
        description="XBar/ECM + Shuffle vs two paper systems",
        system=SystemSpec(
            configurations=("LMesh/ECM", "XBar/ECM", "XBar/OCM"),
        ),
        workloads=(
            WorkloadSpec(name="Uniform", num_requests=num_requests),
            WorkloadSpec(name="Shuffle", num_requests=num_requests),
        ),
        scale=ScaleSpec(tier="quick", seed=1),
    )

    print("Custom scenario demo")
    print("=" * 64)
    print(
        f"{scenario.description}; {num_requests:,} requests per workload\n"
    )
    header = (
        f"{'workload':<10}{'configuration':<13}{'exec (us)':>11}"
        f"{'bw (TB/s)':>11}{'latency (ns)':>14}"
    )
    print(header)
    print("-" * len(header))

    def stream(result) -> None:
        print(
            f"{result.workload:<10}{result.configuration:<13}"
            f"{result.execution_time_s * 1e6:>11.2f}"
            f"{result.achieved_bandwidth_tbps:>11.3f}"
            f"{result.average_latency_ns:>14.1f}"
        )

    outcome = run(scenario, on_result=stream)

    by_key = {
        (r.workload, r.configuration): r for r in outcome.results
    }
    print()
    for workload in ("Uniform", "Shuffle"):
        baseline = by_key[(workload, "LMesh/ECM")]
        xbar_only = by_key[(workload, "XBar/ECM")]
        corona = by_key[(workload, "XBar/OCM")]
        print(
            f"{workload}: crossbar alone buys "
            f"{baseline.execution_time_s / xbar_only.execution_time_s:.2f}x, "
            f"optical memory on top -> "
            f"{baseline.execution_time_s / corona.execution_time_s:.2f}x"
        )


if __name__ == "__main__":
    main()
