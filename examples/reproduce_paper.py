#!/usr/bin/env python3
"""Reproduce the paper's full evaluation: Tables 1-4 and Figures 8-11.

Runs the complete 5-configuration x 15-workload matrix at a configurable
scale, renders every table and figure as text, and prints the Section 5
geometric-mean summary next to the paper's numbers.  This is the script behind
EXPERIMENTS.md.

Run with::

    python examples/reproduce_paper.py                 # quick scale
    python examples/reproduce_paper.py --scale full    # overnight scale
    python examples/reproduce_paper.py --requests 40000
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.experiments import (
    FULL_SCALE,
    QUICK_SCALE,
    EvaluationMatrix,
    ExperimentScale,
)
from repro.harness.figures import (
    PAPER_SPEEDUP_SUMMARY,
    figure10_latency,
    figure11_power,
    figure8_speedup,
    figure9_bandwidth,
    render_figure,
    speedup_summary,
)
from repro.harness.parallel import ParallelEvaluationRunner
from repro.harness.tables import render_all_tables


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=("quick", "default", "full"), default="quick",
        help="how far to scale the paper's request counts down",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="override: requests per synthetic workload",
    )
    parser.add_argument(
        "--skip-splash", action="store_true", help="only run the synthetic workloads"
    )
    return parser.parse_args(argv)


def choose_scale(args: argparse.Namespace) -> ExperimentScale:
    scale = {"quick": QUICK_SCALE, "default": ExperimentScale(), "full": FULL_SCALE}[
        args.scale
    ]
    if args.requests is not None:
        scale = ExperimentScale(
            synthetic_requests=args.requests,
            splash_fraction=scale.splash_fraction,
            splash_min_requests=min(args.requests, scale.splash_min_requests),
            splash_max_requests=max(args.requests, scale.splash_min_requests),
        )
    return scale


def main(argv=None) -> None:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    matrix = EvaluationMatrix(
        scale=choose_scale(args), include_splash=not args.skip_splash
    )

    print(render_all_tables())
    print()
    print(f"Running {matrix.run_count()} simulations "
          f"({len(matrix.configurations())} configurations x "
          f"{len(matrix.workloads())} workloads)...\n")

    runner = ParallelEvaluationRunner(matrix=matrix, jobs=1, progress=print)
    results = runner.run()
    order = matrix.workload_names()

    print()
    print(render_figure(figure8_speedup(results, workload_order=order),
                        title="Figure 8: Normalized Speedup (over LMesh/ECM)", unit="x"))
    print(render_figure(figure9_bandwidth(results, workload_order=order),
                        title="Figure 9: Achieved Bandwidth", unit=" TB/s"))
    print(render_figure(figure10_latency(results, workload_order=order),
                        title="Figure 10: Average L2 Miss Latency", unit=" ns"))
    print(render_figure(figure11_power(results, workload_order=order),
                        title="Figure 11: On-chip Network Power", unit=" W"))

    summary = speedup_summary(
        results, matrix.synthetic_names(), matrix.splash_names()
    )
    print("Section 5 geometric-mean summary (measured vs paper):")
    for key, value in summary.items():
        paper = PAPER_SPEEDUP_SUMMARY.get(key)
        reference = f"(paper: {paper:.2f})" if paper is not None else ""
        print(f"  {key:<34} {value:6.2f} {reference}")
    print(f"\nTotal simulated requests: {runner.total_simulated_requests():,}; "
          f"wall clock: {runner.total_wall_clock_seconds():.1f} s")


if __name__ == "__main__":
    main()
