#!/usr/bin/env python3
"""MOESI coherence and the optical broadcast bus.

Part 1 drives the functional MOESI directory with a synthetic sharing pattern
(producer/consumer lines with growing sharer sets) and shows how many
invalidation messages the optical broadcast bus saves compared with turning
every multicast into unicasts on the crossbar -- the argument of Section 3.2.2.

Part 2 runs the *timed* coherence subsystem: a sharing-tagged Uniform trace
replayed through the full transaction engine on the Corona design (where
invalidations ride the broadcast bus) and on the all-electrical baseline
(where each sharer costs a unicast on the mesh), printing the measured
invalidation and cache-to-cache latencies side by side.

Run with::

    python examples/coherence_broadcast.py
"""

from __future__ import annotations

import random

from repro.cache.coherence import CoherenceController
from repro.coherence import CoherenceConfig, SharingProfile
from repro.core.config import CORONA_DEFAULT
from repro.core.configs import configuration_by_name
from repro.core.system import simulate_workload
from repro.network.broadcast import OpticalBroadcastBus
from repro.trace.synthetic import uniform_workload


def main() -> None:
    rng = random.Random(2008)
    directory = CoherenceController(home_cluster=0, broadcast_threshold=4)
    bus = OpticalBroadcastBus(CORONA_DEFAULT)

    num_lines = 256
    now = 0.0
    for step in range(4000):
        line = rng.randrange(num_lines) * 64
        cluster = rng.randrange(64)
        if rng.random() < 0.7:
            directory.handle_read(line, cluster)
        else:
            action = directory.handle_write(line, cluster)
            if action.broadcast_messages:
                result = bus.broadcast_invalidate(
                    src=0, sharers=len(action.invalidated_clusters), now=now
                )
                now = result.arrival_time
            else:
                now += 2e-9

    histogram = directory.sharer_histogram()
    print("Sharer-count distribution over directory entries:")
    for sharers in sorted(histogram):
        print(f"  {sharers:>3} holders: {histogram[sharers]:>5} lines")

    print(f"\nWrites processed:          {directory.write_requests}")
    print(f"Invalidations required:    {directory.invalidations_sent}")
    print(f"Broadcasts used:           {directory.broadcasts_used}")
    print(f"Unicast messages avoided:  {directory.broadcast_savings()}")
    print(f"Broadcast bus utilisation: {bus.broadcasts_sent} messages, "
          f"{bus.unicast_messages_avoided} unicasts avoided")
    losses = bus.listener_losses_db()
    print(f"Listener tap loss range:   {min(losses):.1f} .. {max(losses):.1f} dB")

    # ---------------------------------------------------------------- part 2
    print("\nTimed coherent replay (sharing fraction 0.3, 4,000 misses):")
    workload = uniform_workload(sharing=SharingProfile(fraction=0.3))
    header = (
        f"{'configuration':<12}{'miss ns':>10}{'inval ns':>10}{'c2c ns':>9}"
        f"{'bcasts':>8}{'unicasts':>10}{'writebacks':>12}"
    )
    print(header)
    print("-" * len(header))
    for name in ("LMesh/ECM", "XBar/OCM"):
        result = simulate_workload(
            configuration_by_name(name),
            workload,
            num_requests=4000,
            coherence=CoherenceConfig(),
        )
        print(
            f"{name:<12}{result.average_latency_ns:>10.1f}"
            f"{result.average_invalidation_latency_ns:>10.2f}"
            f"{result.average_cache_to_cache_latency_ns:>9.2f}"
            f"{result.invalidation_broadcasts:>8}"
            f"{result.invalidation_unicasts:>10}"
            f"{result.dirty_writebacks:>12}"
        )
    print(
        "\nOne broadcast-bus message invalidates every sharer at once; the\n"
        "electrical mesh pays per-sharer unicasts, which is why its\n"
        "invalidation latency is an order of magnitude higher."
    )


if __name__ == "__main__":
    main()
