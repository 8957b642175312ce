"""Table 3 -- Benchmarks and Configurations.

Checks the workload suite against the paper's Table 3 (the four synthetic
patterns at 1 M requests and the eleven SPLASH-2 applications with their
scaled datasets and request counts, plus the Bit Reversal / Neighbor
extensions) and benchmarks trace generation, which is the reproduction's
stand-in for the paper's COTSon trace-collection stage.
"""

from repro.harness.tables import format_table, table3_benchmarks
from repro.trace.splash2 import SPLASH2_PROFILES, splash2_workload
from repro.trace.synthetic import synthetic_workloads

#: SPLASH-2 rows of Table 3: dataset and network request count.
PAPER_TABLE3_SPLASH = {
    "Barnes": ("64 K particles", 7_200_000),
    "Cholesky": ("tk29.O", 600_000),
    "FFT": ("16 M points", 176_000_000),
    "FMM": ("1 M particles", 1_800_000),
    "LU": ("2048x2048 matrix", 34_000_000),
    "Ocean": ("2050x2050 grid", 240_000_000),
    "Radiosity": ("roomlarge", 4_200_000),
    "Radix": ("64 M integers", 189_000_000),
    "Raytrace": ("balls4", 700_000),
    "Volrend": ("head", 3_600_000),
    "Water-Sp": ("32 K molecules", 3_200_000),
}


def test_table3_matches_paper(benchmark):
    rows = benchmark(table3_benchmarks)
    # The paper's 15 workloads plus the Bit Reversal / Neighbor extensions.
    assert len(rows) == 17
    for name, (dataset, requests) in PAPER_TABLE3_SPLASH.items():
        profile = SPLASH2_PROFILES[name]
        assert profile.dataset == dataset
        assert profile.paper_requests == requests
    for workload in synthetic_workloads():
        assert workload.num_requests == 1_000_000
    print()
    print(format_table(
        ["Benchmark", "Data Set / Description", "# Network Requests"],
        rows,
        title="Table 3 (reproduced)",
    ))


def test_splash_trace_generation_rate(benchmark):
    """Benchmark the SPLASH-2 statistical trace generator.

    The synthetic generator's rate is ``bench_replay_engine.py::
    test_packed_generation_rate``.
    """
    workload = splash2_workload("Ocean")
    trace = benchmark(workload.generate_packed, 1, 20_000)
    assert trace.total_requests == 20_000
    assert sum(trace.gaps) > 0
