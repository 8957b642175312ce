"""Table 4 -- Optical vs Electrical Memory Interconnects.

Derives the OCM and ECM columns from the channel models and checks the
published numbers: 64 controllers each, 256 fibers vs 1536 pins, 128 b half
duplex vs 12 b full duplex at 10 Gb/s, 10.24 vs 0.96 TB/s, 20 ns latency, and
the ~0.078 vs ~2 mW/Gb/s interconnect power that yields ~6.4 W vs >160 W for a
10 TB/s-class memory system.
"""

import pytest

from repro.core.config import CORONA_DEFAULT
from repro.harness.tables import format_table, table4_memory_interconnects
from repro.memory.ecm import ElectricallyConnectedMemory, ecm_interconnect_summary
from repro.memory.ocm import OpticallyConnectedMemory, ocm_interconnect_summary
from repro.power.electrical import electrical_memory_interconnect_power_w


def test_table4_matches_paper(benchmark):
    rows = benchmark(table4_memory_interconnects, CORONA_DEFAULT)
    by_key = {row[0]: (row[1], row[2]) for row in rows}
    assert by_key["Memory controllers"] == (64, 64)
    assert by_key["External connectivity"] == ("256 fibers", "1536 pins")
    assert by_key["Channel width"] == ("128 b half duplex", "12 b full duplex")
    assert by_key["Channel data rate"] == ("10 Gb/s", "10 Gb/s")
    assert float(by_key["Memory bandwidth (TB/s)"][0]) == pytest.approx(10.24)
    assert float(by_key["Memory bandwidth (TB/s)"][1]) == pytest.approx(0.96)
    assert float(by_key["Memory latency (ns)"][0]) == 20.0
    print()
    print(format_table(["Resource", "OCM", "ECM"], rows, title="Table 4 (reproduced)"))


def test_memory_power_claims(benchmark):
    summaries = benchmark(
        lambda: (
            ocm_interconnect_summary(CORONA_DEFAULT),
            ecm_interconnect_summary(CORONA_DEFAULT),
        )
    )
    ocm, _ecm = summaries
    # Section 3.3: ~6.4 W for the optical memory interconnect; >160 W if the
    # same bandwidth were delivered electrically.
    assert ocm["Interconnect power (W)"] == pytest.approx(6.4, rel=0.05)
    assert electrical_memory_interconnect_power_w(10.24e12) > 160.0


def test_per_controller_bandwidth_gap(benchmark):
    """Micro-benchmark: sustained single-controller bandwidth, OCM vs ECM."""

    def saturate(system_factory):
        controller = system_factory(CORONA_DEFAULT).controller(0)
        finish = 0.0
        for i in range(600):
            result = controller.access(
                now=0.0, size_bytes=64, is_write=False, address=i * 64
            )
            finish = max(finish, result.completion_time)
        return controller.bytes_transferred / finish

    ocm_bandwidth = saturate(OpticallyConnectedMemory)
    ecm_bandwidth = benchmark.pedantic(saturate, args=(ElectricallyConnectedMemory,), rounds=2, iterations=1)
    # Table 4's 160 vs 15 GB/s per controller, within DRAM-bank limits.
    assert ecm_bandwidth == pytest.approx(15e9, rel=0.15)
    assert ocm_bandwidth > 5 * ecm_bandwidth
