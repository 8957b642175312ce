"""Table 2 -- Optical Resource Inventory.

Derives the waveguide and ring-resonator counts per photonic subsystem from
the architectural parameters and checks them against the paper's table
(Memory 128 / 16 K, Crossbar 256 / 1024 K, Broadcast 1 / 8 K, Arbitration
2 / 8 K, Clock 1 / 64, total 388 / ~1056 K).
"""

from repro.core.config import CORONA_DEFAULT
from repro.harness.tables import format_table, table2_optical_inventory
from repro.photonics.inventory import corona_inventory

#: (waveguides, ring resonators) per subsystem in the paper's Table 2.
PAPER_TABLE2 = {
    "Memory": (128, 16 * 1024),
    "Crossbar": (256, 1024 * 1024),
    "Broadcast": (1, 8 * 1024),
    "Arbitration": (2, 8 * 1024),
    "Clock": (1, 64),
}


def test_table2_matches_paper(benchmark):
    inventory = benchmark(corona_inventory, CORONA_DEFAULT)
    by_name = inventory.by_name()
    for subsystem, (waveguides, rings) in PAPER_TABLE2.items():
        assert by_name[subsystem].waveguides == waveguides
        assert by_name[subsystem].ring_resonators == rings
    assert inventory.total_waveguides == 388
    # The paper rounds the total to "~1056 K".
    assert abs(inventory.total_ring_resonators - 1056 * 1024) < 32 * 1024
    print()
    print(format_table(
        ["Photonic Subsystem", "Waveguides", "Ring Resonators"],
        table2_optical_inventory(),
        title="Table 2 (reproduced)",
    ))


def test_inventory_scaling_ablation(benchmark):
    """Ablation: how the ring budget scales with cluster count.

    The crossbar's ring count grows quadratically with the number of clusters,
    which is the main scalability pressure on the design.
    """
    def sweep():
        return {
            clusters: corona_inventory(
                CORONA_DEFAULT.with_overrides({"num_clusters": clusters})
            ).total_ring_resonators
            for clusters in (16, 32, 64, 128)
        }

    rings = benchmark(sweep)
    assert rings[128] > 3.5 * rings[64] > 3.5 * 3.5 * rings[32] / 4
    assert rings[64] == 1_081_408
