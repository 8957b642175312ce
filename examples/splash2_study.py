#!/usr/bin/env python3
"""SPLASH-2 study: which applications need Corona's bandwidth?

Reproduces the paper's Section 5 discussion in miniature.  It replays a
scaled-down trace of each SPLASH-2 application on all five system
configurations, classifies the applications the way the paper does
(low-bandwidth, FMM, bandwidth-hungry, bursty/latency-bound), and prints the
per-class speedups.

Run with::

    python examples/splash2_study.py [requests_per_benchmark] [benchmark ...]
"""

from __future__ import annotations

import sys

from repro import CORONA_DEFAULT, all_configurations, simulate_workload, splash2_workload
from repro.trace.splash2 import SPLASH2_ORDER, SPLASH2_PROFILES

#: The paper's qualitative grouping of the SPLASH-2 applications.
CLASSES = {
    "cache-resident (ECM is enough)": ["Barnes", "Radiosity", "Volrend", "Water-Sp"],
    "slightly above ECM (FMM)": ["FMM"],
    "bandwidth-hungry (needs OCM + crossbar)": ["Cholesky", "FFT", "Ocean", "Radix"],
    "bursty / latency-bound (OCM does most of the work)": ["LU", "Raytrace"],
}


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 15_000
    selected = sys.argv[2:] or SPLASH2_ORDER

    configurations = all_configurations()
    print(f"Replaying {num_requests:,} misses per benchmark "
          f"on {len(configurations)} configurations\n")

    speedups = {}
    for name in selected:
        workload = splash2_workload(name)
        profile = SPLASH2_PROFILES[name]
        results = {}
        for configuration in configurations:
            results[configuration.name] = simulate_workload(
                configuration, workload, num_requests=num_requests
            )
        baseline_time = results["LMesh/ECM"].execution_time_s
        speedups[name] = {
            config: baseline_time / result.execution_time_s
            for config, result in results.items()
        }
        print(
            f"{name:<10} demand={profile.demand_bandwidth_tbps(CORONA_DEFAULT):5.2f} TB/s  "
            + "  ".join(
                f"{config}={speedups[name][config]:4.2f}x"
                for config in ("HMesh/ECM", "HMesh/OCM", "XBar/OCM")
            )
        )

    print("\nPer-class geometric-mean speedup of Corona (XBar/OCM) over LMesh/ECM:")
    import math

    for label, members in CLASSES.items():
        chosen = [m for m in members if m in speedups]
        if not chosen:
            continue
        mean = math.exp(
            sum(math.log(speedups[m]["XBar/OCM"]) for m in chosen) / len(chosen)
        )
        print(f"  {label:<52} {mean:5.2f}x")


if __name__ == "__main__":
    main()
