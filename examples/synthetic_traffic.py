#!/usr/bin/env python3
"""Synthetic traffic stress test: crossbar vs meshes under adversarial patterns.

Replays the paper's four synthetic patterns (Uniform, Hot Spot, Tornado,
Transpose) plus the Bit Reversal and Neighbor extensions, and reports, per
interconnect, the achieved memory bandwidth, average latency and network
power -- the data behind Figures 8-11 for the synthetic half of the
evaluation.  It also prints the per-channel /
per-link hot spots so the structural difference between a serpentine crossbar
channel and a dimension-order mesh is visible.

Run with::

    python examples/synthetic_traffic.py [num_requests]
"""

from __future__ import annotations

import sys

from repro import configuration_by_name, synthetic_workloads
from repro.core.system import SystemSimulator

CONFIGS = ["LMesh/ECM", "HMesh/OCM", "XBar/OCM"]


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000

    for workload in synthetic_workloads():
        trace = workload.generate_packed(seed=1, num_requests=num_requests)
        print(f"\n=== {workload.name} ({num_requests:,} requests) ===")
        print(f"{'config':<12}{'bw (TB/s)':>12}{'latency (ns)':>14}{'power (W)':>12}")
        for name in CONFIGS:
            simulator = SystemSimulator(
                configuration_by_name(name), window_depth=workload.window
            )
            result = simulator.run(trace)
            print(
                f"{name:<12}{result.achieved_bandwidth_tbps:>12.3f}"
                f"{result.average_latency_ns:>14.1f}{result.network_power_w:>12.2f}"
            )
            if name == "XBar/OCM":
                busiest = simulator.network.busiest_channels(3)
                formatted = ", ".join(
                    f"ch{channel}={bytes_ / 1e6:.1f} MB" for channel, bytes_ in busiest
                )
                print(f"{'':<12}busiest crossbar channels: {formatted}")
            else:
                hottest = simulator.network.most_utilized_links(
                    result.execution_time_s, count=3
                )
                formatted = ", ".join(
                    f"{a}->{b}:{util * 100:.0f}%" for (a, b), util in hottest
                )
                print(f"{'':<12}hottest mesh links: {formatted}")


if __name__ == "__main__":
    main()
